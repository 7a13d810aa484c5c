type t = { dict : Lh_storage.Dict.t; tables : (string, Lh_storage.Table.t) Hashtbl.t }

let create () = { dict = Lh_storage.Dict.create (); tables = Hashtbl.create 16 }
let of_dict dict = { dict; tables = Hashtbl.create 16 }
let dict t = t.dict

let register t table =
  if table.Lh_storage.Table.dict != t.dict then
    failwith
      (Printf.sprintf "Catalog.register: table %s uses a foreign dictionary"
         table.Lh_storage.Table.name);
  Hashtbl.replace t.tables table.Lh_storage.Table.name table

let remove t name = Hashtbl.remove t.tables name
let find t name = Hashtbl.find_opt t.tables name

let find_exn t name =
  match find t name with
  | Some table -> table
  | None -> failwith (Printf.sprintf "Catalog: unknown table %S" name)

let names t = Hashtbl.fold (fun name _ acc -> name :: acc) t.tables [] |> List.sort compare
let tables t = List.map (fun name -> Hashtbl.find t.tables name) (names t)
