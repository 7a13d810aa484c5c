type 'v slot = Ready of 'v | Building

type 'v t = {
  lock : Mutex.t;
  filled : Condition.t;  (* broadcast whenever a [Building] slot resolves *)
  slots : (int * string, 'v slot) Hashtbl.t;
}

let create () = { lock = Mutex.create (); filled = Condition.create (); slots = Hashtbl.create 32 }

let find_or_build t ~version key build =
  let k = (version, key) in
  let rec claim () =
    match Hashtbl.find_opt t.slots k with
    | Some (Ready v) -> Some v
    | Some Building ->
        Condition.wait t.filled t.lock;
        claim ()
    | None ->
        Hashtbl.replace t.slots k Building;
        None
  in
  match Mutex.protect t.lock claim with
  | Some v -> (v, true)
  | None -> (
      let resolve slot =
        Mutex.protect t.lock (fun () ->
            (* A [retain] may have dropped the claim meanwhile: leave the
               version dropped. *)
            (match (Hashtbl.find_opt t.slots k, slot) with
            | Some Building, Some v -> Hashtbl.replace t.slots k (Ready v)
            | Some Building, None -> Hashtbl.remove t.slots k
            | _ -> ());
            Condition.broadcast t.filled)
      in
      match build () with
      | v ->
          resolve (Some v);
          (v, false)
      | exception exn ->
          let bt = Printexc.get_raw_backtrace () in
          resolve None;
          Printexc.raise_with_backtrace exn bt)

let retain t ~live =
  Mutex.protect t.lock (fun () ->
      Hashtbl.filter_map_inplace (fun (v, _) slot -> if live v then Some slot else None) t.slots;
      Condition.broadcast t.filled)

let versions t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun (v, _) _ acc -> v :: acc) t.slots [] |> List.sort_uniq compare)
