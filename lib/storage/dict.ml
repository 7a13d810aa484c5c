(* One pool of strings, appended to by exactly one handle (its owner).
   [index] maps every string the owner ever appended to its code; the
   owner mutates it only under [lock], and every other handle reads it
   only under [lock], so a reader's lookup never sees a table mid-insert
   or mid-resize. The owner itself reads [index] without the lock: nobody
   else writes it. *)
type pool = { index : (string, int) Hashtbl.t; lock : Mutex.t }

(* A handle: a pool plus the prefix of it this handle sees. The owner's
   [strings]/[len] are the pool's live ones. A frozen handle captured the
   owner's array and length at [freeze] time: the owner only ever writes
   slots at or past that length (or into a fresh, larger array), so the
   captured prefix never changes under it. *)
type t = {
  mutable pool : pool;
  mutable owner : bool;
  mutable strings : string array;
  mutable len : int;
}

let new_pool n = { index = Hashtbl.create n; lock = Mutex.create () }
let create () = { pool = new_pool 256; owner = true; strings = Array.make 16 ""; len = 0 }
let freeze t = { pool = t.pool; owner = false; strings = t.strings; len = t.len }

let find t s =
  let code =
    if t.owner then Hashtbl.find_opt t.pool.index s
    else Mutex.protect t.pool.lock (fun () -> Hashtbl.find_opt t.pool.index s)
  in
  match code with Some c when c < t.len -> code | _ -> None

(* A frozen handle's first new string: take a private pool holding
   exactly the frozen prefix, and own it from now on. The parent pool is
   never appended to by anyone but its owner. *)
let fork t =
  let pool = new_pool (max 256 t.len) in
  for c = 0 to t.len - 1 do
    Hashtbl.add pool.index t.strings.(c) c
  done;
  let strings = Array.make (max 16 (2 * t.len)) "" in
  Array.blit t.strings 0 strings 0 t.len;
  t.pool <- pool;
  t.strings <- strings;
  t.owner <- true

let encode t s =
  match find t s with
  | Some code -> code
  | None ->
      if not t.owner then fork t;
      let code = t.len in
      if t.len = Array.length t.strings then begin
        let bigger = Array.make (2 * t.len) "" in
        Array.blit t.strings 0 bigger 0 t.len;
        t.strings <- bigger
      end;
      t.strings.(t.len) <- s;
      t.len <- t.len + 1;
      Mutex.protect t.pool.lock (fun () -> Hashtbl.replace t.pool.index s code);
      code

let merge_into ~into local =
  let remap = Array.make local.len 0 in
  for c = 0 to local.len - 1 do
    remap.(c) <- encode into local.strings.(c)
  done;
  remap

let decode t code =
  if code < 0 || code >= t.len then invalid_arg (Printf.sprintf "Dict.decode: unknown code %d" code);
  t.strings.(code)

let size t = t.len
