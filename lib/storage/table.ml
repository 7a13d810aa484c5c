type column = Icol of int array | Fcol of float array

type t = {
  id : int;
  name : string;
  schema : Schema.t;
  nrows : int;
  cols : column array;
  dict : Dict.t;
}

(* Table versions: every [create] draws a fresh id, so two tables with the
   same name and row count never share a cache key. *)
let next_id = Atomic.make 0

let column_length = function Icol a -> Array.length a | Fcol a -> Array.length a

let create ~name ~schema ~dict cols =
  let ncols = Schema.ncols schema in
  if Array.length cols <> ncols then
    failwith (Printf.sprintf "Table.create %s: %d columns for %d schema entries" name (Array.length cols) ncols);
  let nrows = if ncols = 0 then 0 else column_length cols.(0) in
  Array.iteri
    (fun i c ->
      if column_length c <> nrows then failwith (Printf.sprintf "Table.create %s: ragged columns" name);
      let spec = Schema.col schema i in
      match (spec.Schema.dtype, c) with
      | Dtype.Float, Fcol _ -> ()
      | Dtype.Float, Icol _ -> failwith (Printf.sprintf "Table.create %s: column %s must be floats" name spec.Schema.name)
      | (Dtype.Int | Dtype.String | Dtype.Date), Icol codes ->
          if spec.Schema.kind = Schema.Key && Array.exists (fun v -> v < 0) codes then
            failwith (Printf.sprintf "Table.create %s: negative code in key column %s" name spec.Schema.name)
      | (Dtype.Int | Dtype.String | Dtype.Date), Fcol _ ->
          failwith (Printf.sprintf "Table.create %s: column %s must be int codes" name spec.Schema.name))
    cols;
  { id = Atomic.fetch_and_add next_id 1; name; schema; nrows; cols; dict }

(* Columns are immutable after [create]; repointing the dictionary is all a
   snapshot needs — the int codes stay valid because a {!Dict.freeze}d
   handle decodes the same prefix. Same columns, same version: the id is
   kept, so cached tries of this table stay valid for the repointed one. *)
let with_dict t ~dict = { t with dict }

let encode_cell dict dtype raw =
  match dtype with
  | Dtype.Int -> int_of_string (String.trim raw)
  | Dtype.Date -> Date.of_string raw
  | Dtype.String -> Dict.encode dict raw
  | Dtype.Float -> failwith "Table.encode_cell: float handled separately"

(* Fired once per ingested row on both CSV paths (the sequential fold and
   the parallel chunk bodies) and on [of_rows]. A fault here aborts the
   load before [create] runs, so no table is ever registered from a
   partial ingest. *)
let fault_row = Lh_fault.Fault.site "ingest.row"

let of_rows ~name ~schema ~dict rows =
  let ncols = Schema.ncols schema in
  let builders =
    Array.init ncols (fun i ->
        match (Schema.col schema i).Schema.dtype with
        | Dtype.Float -> `F (Lh_util.Vec.Float.create ())
        | Dtype.Int | Dtype.String | Dtype.Date -> `I (Lh_util.Vec.Int.create ()))
  in
  List.iter
    (fun row ->
      Lh_fault.Fault.hit fault_row;
      if List.length row <> ncols then failwith (Printf.sprintf "Table.of_rows %s: ragged row" name);
      List.iteri
        (fun i v ->
          match (builders.(i), v, (Schema.col schema i).Schema.dtype) with
          | `F b, Dtype.VFloat f, _ -> Lh_util.Vec.Float.push b f
          | `F b, Dtype.VInt n, _ -> Lh_util.Vec.Float.push b (float_of_int n)
          | `I b, Dtype.VInt n, Dtype.Int -> Lh_util.Vec.Int.push b n
          | `I b, Dtype.VDate d, Dtype.Date -> Lh_util.Vec.Int.push b d
          | `I b, Dtype.VString s, Dtype.String -> Lh_util.Vec.Int.push b (Dict.encode dict s)
          | _ ->
              failwith
                (Printf.sprintf "Table.of_rows %s: value %s does not fit column %s" name
                   (Dtype.value_to_string v)
                   (Schema.col schema i).Schema.name))
        row)
    rows;
  let cols =
    Array.map (function `F b -> Fcol (Lh_util.Vec.Float.to_array b) | `I b -> Icol (Lh_util.Vec.Int.to_array b)) builders
  in
  create ~name ~schema ~dict cols

let fresh_builders schema =
  Array.init (Schema.ncols schema) (fun i ->
      match (Schema.col schema i).Schema.dtype with
      | Dtype.Float -> `F (Lh_util.Vec.Float.create ())
      | Dtype.Int | Dtype.String | Dtype.Date -> `I (Lh_util.Vec.Int.create ()))

let ingest_fields ~name ~schema ~dict ~line builders fields =
  Lh_fault.Fault.hit fault_row;
  let ncols = Schema.ncols schema in
  (* TPC-H '|'-terminated lines produce a trailing empty field; accept it. *)
  let navail =
    if Array.length fields = ncols + 1 && fields.(ncols) = "" then ncols else Array.length fields
  in
  if navail < ncols then
    failwith
      (Printf.sprintf "Table.load_csv %s: line %d: row has %d fields, schema has %d columns"
         name line (Array.length fields) ncols);
  for i = 0 to ncols - 1 do
    try
      match builders.(i) with
      | `F b -> Lh_util.Vec.Float.push b (float_of_string (String.trim fields.(i)))
      | `I b ->
          Lh_util.Vec.Int.push b (encode_cell dict (Schema.col schema i).Schema.dtype fields.(i))
    with Failure _ | Invalid_argument _ ->
      failwith
        (Printf.sprintf "Table.load_csv %s: line %d: cannot parse %S as %s (column %s)" name
           line fields.(i)
           (Dtype.to_string (Schema.col schema i).Schema.dtype)
           (Schema.col schema i).Schema.name)
  done

let finish_builders builders =
  Array.map
    (function `F b -> Fcol (Lh_util.Vec.Float.to_array b) | `I b -> Icol (Lh_util.Vec.Int.to_array b))
    builders

(* Parallel ingest: each chunk of lines parses into private builders with a
   private dictionary; chunks merge left-to-right, remapping string codes
   through [Dict.merge_into], so the final code assignment — and therefore
   the table — is identical to the sequential scan's. *)
let load_csv_parallel ~name ~schema ~dict ~domains ~sep path =
  let lines = Lh_util.Csv.read_lines path in
  let string_col =
    Array.init (Schema.ncols schema) (fun i -> (Schema.col schema i).Schema.dtype = Dtype.String)
  in
  let ldict, builders =
    Lh_util.Parfor.map_reduce ~domains ~n:(Array.length lines)
      ~init:(fun () -> (Dict.create (), fresh_builders schema))
      ~body:(fun (ldict, builders) i ->
        let lineno, raw = lines.(i) in
        let fields = Array.of_list (Lh_util.Csv.split_line ~sep raw) in
        ingest_fields ~name ~schema ~dict:ldict ~line:lineno builders fields)
      ~merge:(fun (adict, abuilders) (bdict, bbuilders) ->
        let remap = Dict.merge_into ~into:adict bdict in
        Array.iteri
          (fun i b ->
            match (abuilders.(i), b) with
            | `F a, `F b ->
                for j = 0 to Lh_util.Vec.Float.length b - 1 do
                  Lh_util.Vec.Float.push a (Lh_util.Vec.Float.get b j)
                done
            | `I a, `I b ->
                let strings = string_col.(i) in
                for j = 0 to Lh_util.Vec.Int.length b - 1 do
                  let v = Lh_util.Vec.Int.get b j in
                  Lh_util.Vec.Int.push a (if strings then remap.(v) else v)
                done
            | _ -> assert false)
          bbuilders;
        (adict, abuilders))
  in
  let remap = Dict.merge_into ~into:dict ldict in
  let cols =
    Array.mapi
      (fun i b ->
        match b with
        | `F b -> Fcol (Lh_util.Vec.Float.to_array b)
        | `I b ->
            let a = Lh_util.Vec.Int.to_array b in
            if string_col.(i) then
              for j = 0 to Array.length a - 1 do
                a.(j) <- remap.(a.(j))
              done;
            Icol a)
      builders
  in
  create ~name ~schema ~dict cols

let load_csv ~name ~schema ~dict ?(domains = 1) ?(sep = ',') path =
  if domains > 1 then load_csv_parallel ~name ~schema ~dict ~domains ~sep path
  else begin
    let builders = fresh_builders schema in
    Lh_util.Csv.fold_file ~sep path ~init:() ~f:(fun () ~line row ->
        ingest_fields ~name ~schema ~dict ~line builders (Array.of_list row));
    create ~name ~schema ~dict (finish_builders builders)
  end

let icol t i =
  match t.cols.(i) with
  | Icol a -> a
  | Fcol _ -> failwith (Printf.sprintf "Table.icol %s: column %d holds floats" t.name i)

let fcol t i =
  match t.cols.(i) with
  | Fcol a -> a
  | Icol _ -> failwith (Printf.sprintf "Table.fcol %s: column %d holds int codes" t.name i)

let number t col row =
  match t.cols.(col) with
  | Fcol a -> a.(row)
  | Icol a ->
      (match (Schema.col t.schema col).Schema.dtype with
      | Dtype.String -> failwith (Printf.sprintf "Table.number %s: string column" t.name)
      | Dtype.Int | Dtype.Date | Dtype.Float -> float_of_int a.(row))

let code t col row =
  match t.cols.(col) with
  | Icol a -> a.(row)
  | Fcol _ -> failwith (Printf.sprintf "Table.code %s: float column has no code" t.name)

let value t ~row ~col =
  let spec = Schema.col t.schema col in
  match (t.cols.(col), spec.Schema.dtype) with
  | Fcol a, _ -> Dtype.VFloat a.(row)
  | Icol a, Dtype.Int -> Dtype.VInt a.(row)
  | Icol a, Dtype.Date -> Dtype.VDate a.(row)
  | Icol a, Dtype.String -> Dtype.VString (Dict.decode t.dict a.(row))
  | Icol _, Dtype.Float -> assert false

let encode_const t col v =
  let spec = Schema.col t.schema col in
  match (spec.Schema.dtype, v) with
  | Dtype.Int, Dtype.VInt n -> Some n
  | Dtype.Date, Dtype.VDate d -> Some d
  | Dtype.Date, Dtype.VString s -> Some (Date.of_string s)
  | Dtype.String, Dtype.VString s -> Dict.find t.dict s
  | Dtype.Float, _ -> failwith (Printf.sprintf "Table.encode_const %s: float column" t.name)
  | _ ->
      failwith
        (Printf.sprintf "Table.encode_const %s: %s does not fit column %s" t.name
           (Dtype.value_to_string v) spec.Schema.name)

let to_rows t =
  List.init t.nrows (fun row ->
      List.init (Schema.ncols t.schema) (fun col -> value t ~row ~col))

let pp_row fmt t row =
  for col = 0 to Schema.ncols t.schema - 1 do
    if col > 0 then Format.fprintf fmt "|";
    Dtype.pp_value fmt (value t ~row ~col)
  done
