(* One workload run through Lh_serve.Serve: set-up, the measured window
   (a closed-loop reader, plus an open-loop writer on ingest, or side
   cycles of ingest and recovery between reader segments on bi and la),
   and restart recovery. Every result is checked; every operation lands
   in a [tally]. *)

module Engine = Levelheaded.Engine
module Serve = Lh_serve.Serve
module Store = Lh_durable.Store
module Obs = Lh_obs.Obs
module Table = Lh_storage.Table
module I = Inputs

let now = Lh_util.Timing.monotonic_now

(* ---------------------------------------------------------------- *)
(* Sizes                                                             *)

type scale = {
  sf : float;  (** TPC-H scale factor of bi and the ingest base *)
  la_scale : float;  (** multiplier on the Table II matrix sizes *)
  dmm_n : int;
  dmv_n : int;
  setups : int;  (** timed set-ups per untraced run; setup_s is their median *)
  segments : int;
      (** untraced runs split the reader's window into this many
          segments, each followed by one side cycle on bi/la, so every
          metric samples the whole run *)
  reps : int;  (** repetitions behind each per-layer median *)
  side_batches : int;  (** bi/la: closed-loop ingests per side cycle *)
  side_rows : int;
      (** rows per side batch: enough that an ingest is mostly encoding
          and registration, not one small write *)
  side_recovers : int;  (** bi/la: restart recoveries per side cycle *)
  recovers : int;
  recover_s : float;
      (** ingest: restart recoveries at the end of an untraced run, at
          least [recovers] of them, for at least [recover_s] seconds *)
}

let full =
  { sf = 0.05; la_scale = 1.0; dmm_n = 192; dmv_n = 1024; setups = 3; segments = 8; reps = 5;
    side_batches = 13; side_rows = 4096; side_recovers = 4; recovers = 32; recover_s = 1.5 }

let tiny =
  { sf = 0.002; la_scale = 0.1; dmm_n = 24; dmv_n = 32; setups = 2; segments = 2; reps = 2;
    side_batches = 6; side_rows = 64; side_recovers = 2; recovers = 4; recover_s = 0.0 }

(* The ingest writer's open-loop rate. *)
let batches_per_s = 5.0

(* ---------------------------------------------------------------- *)
(* Helpers                                                           *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let pos = q *. float (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let median_time reps f = median (List.init reps (fun _ -> snd (timed f)))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p dir =
  ignore
    (List.fold_left
       (fun acc part ->
         let p = if acc = "" then part else Filename.concat acc part in
         (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
         p)
       "" (String.split_on_char '/' dir))

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* Operations attempted and failed; the first few failures are named on
   stderr. *)
type tally = { mutable attempted : int; mutable failed : int }

let record t what = function
  | None -> t.attempted <- t.attempted + 1
  | Some reason ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      if t.failed <= 5 then Printf.eprintf "lhbench: failed %s: %s\n%!" what reason

(* ---------------------------------------------------------------- *)
(* Workloads                                                         *)

type workload = Bi | La | Ingest

let workloads = [ ("bi", Bi); ("la", La); ("ingest", Ingest) ]

type mix = {
  queries : (string * string) array;  (** the reader's fixed queries: label, SQL *)
  checks : I.check array;  (** their reference answers, same order *)
  kernels : I.kernel list;  (** la: the direct lib/blas calls *)
  keys : int array;  (** the key pool feed batches draw [f_id] from *)
}

(* The workload's tables in [dict], its fixed queries, the key pool, its
   kernels, and a thunk computing the reference answers (run once). *)
let generate sc w ~dict ~seed =
  match w with
  | Bi | Ingest ->
      let tables = I.tpch ~dict ~sf:sc.sf in
      let queries = I.shuffle ~seed (if w = Bi then I.bi_queries else I.ingest_queries) in
      (tables, queries, I.order_keys tables, [], fun () ->
        List.map (fun (_, sql) -> I.pairwise tables sql) queries)
  | La ->
      let tables, kernels =
        I.la_tables ~dict ~seed ~scale:sc.la_scale ~dmm_n:sc.dmm_n ~dmv_n:sc.dmv_n
      in
      let kernels = I.shuffle ~seed kernels in
      ( tables,
        List.map (fun k -> (k.I.k_label, k.I.k_sql)) kernels,
        Array.init 100_000 Fun.id,
        kernels,
        fun () -> List.map (fun k -> k.I.k_expect ()) kernels )

let initial_batch ~seed ~keys k = I.feed_batch ~seed ~keys (-(k + 1))

(* One running service over a workload's data: a writer engine at the
   default config, a durable store at lhserve's default sync mode, one
   session; and what the reader needs to query and check it. *)
type deployment = {
  writer : Engine.t;
  svc : Serve.t;
  session : Serve.session;
  dir : string;
  start_epoch : int;
  d_queries : (string * string) array;
  d_keys : int array;
  d_kernels : I.kernel list;
  d_refs : unit -> I.rows list;
}

let deploy sc w ~seed ~dir =
  rm_rf dir;
  mkdir_p dir;
  let writer = Engine.create () in
  let tables, queries, keys, kernels, refs = generate sc w ~dict:(Engine.dict writer) ~seed in
  List.iter (Engine.register writer) tables;
  if w = Ingest then
    for k = 0 to I.feed_tables - 1 do
      ignore
        (Engine.register_rows writer ~name:(I.feed_name k) ~schema:I.feed_schema
           (initial_batch ~seed ~keys k))
    done;
  let store, _ = Store.open_dir dir in
  let svc = Serve.create ~store writer in
  { writer; svc; session = Serve.open_session svc; dir; start_epoch = Engine.epoch writer;
    d_queries = Array.of_list queries; d_keys = keys; d_kernels = kernels; d_refs = refs }

(* The reader's round: the fixed queries in order, then on ingest two
   queries over the next two feed tables. Rounds always complete, so
   every query appears equally often; with an odd round length (7 on
   bi, 5 on ingest) the median and p90 fall inside one query's block of
   latencies rather than on the gap between two. *)
type query = Fixed of int | Feed of int

let round queries w n =
  List.init (Array.length queries) (fun i -> Fixed i)
  @ if w = Ingest then [ Feed (2 * n mod I.feed_tables); Feed (((2 * n) + 1) mod I.feed_tables) ]
    else []

let sql_of queries = function Fixed i -> snd queries.(i) | Feed k -> I.feed_query k
let label_of queries = function Fixed i -> fst queries.(i) | Feed k -> I.feed_name k

let warm_up dep queries w =
  List.iter
    (fun q ->
      match Serve.query dep.session (sql_of queries q) with
      | Ok _ -> ()
      | Error e -> failwith ("warm-up " ^ label_of queries q ^ ": " ^ Serve.error_to_string e))
    (round queries w 0)

(* One timed set-up on a compacted heap: data generation, registration,
   service start and the warm-up round. *)
let setup sc w ~seed ~dir =
  Gc.compact ();
  timed (fun () ->
      let dep = deploy sc w ~seed ~dir in
      warm_up dep dep.d_queries w;
      dep)

(* The reader's mix with its reference answers (computed untimed);
   [perturb] corrupts the first one, for the self-test. *)
let mix_of dep ~perturb =
  let check i e = I.rows_check (if perturb && i = 0 then I.perturb e else e) in
  { queries = dep.d_queries; checks = Array.of_list (List.mapi check (dep.d_refs ()));
    kernels = dep.d_kernels; keys = dep.d_keys }

(* ---------------------------------------------------------------- *)
(* The measured window                                               *)

type reader = {
  mutable lat : (string * float) list;  (** label and latency of each correct query *)
  mutable busy : float;  (** time inside Serve calls, every query *)
  mutable correct : int;
  mutable feed_seen : (int * int * I.rows) list;  (** table, epoch, result *)
  (* traced runs: rounds alternate telemetry on and off *)
  mutable on_busy : float;
  mutable on_queries : int;
  mutable off_busy : float;
  mutable off_queries : int;
  mutable on_minor_words : float;
  mutable on_trie_build : float;  (** time in "trie.build" spans *)
  mutable late_max : float;  (** longest gap between a reply and the next query *)
  mutable rounds : int;
}

let new_reader () =
  { lat = []; busy = 0.0; correct = 0; feed_seen = []; on_busy = 0.0; on_queries = 0;
    off_busy = 0.0; off_queries = 0; on_minor_words = 0.0; on_trie_build = 0.0; late_max = 0.0;
    rounds = 0 }

let latencies r = List.map snd r.lat

(* Closed loop, one session: the next query goes out when the previous
   one has returned. Fixed queries are checked as they complete, feed
   queries once every acknowledgement is in. With [trace], telemetry is
   on for even rounds and off for odd ones. Adds to [r], so a window can
   be read in segments. *)
let read_loop r dep mix w ~tally ~trace ~deadline =
  let last_reply = ref (now ()) in
  while now () < deadline do
    let on = trace && r.rounds mod 2 = 0 in
    Obs.set_enabled on;
    let w0 = Gc.minor_words () and b0 = r.busy and q0 = r.correct in
    List.iter
      (fun q ->
        let sql = sql_of mix.queries q in
        r.late_max <- Float.max r.late_max (now () -. !last_reply);
        let res, dt = timed (fun () -> Serve.query_epoch dep.session sql) in
        last_reply := now ();
        r.busy <- r.busy +. dt;
        let outcome =
          match (res, q) with
          | Error e, _ -> Some (Serve.error_to_string e)
          | Ok (t, _), Fixed i -> mix.checks.(i) t
          | Ok (t, epoch), Feed k ->
              r.feed_seen <- (k, epoch, I.table_rows t) :: r.feed_seen;
              None
        in
        let label = label_of mix.queries q in
        record tally label outcome;
        if outcome = None then begin
          r.correct <- r.correct + 1;
          r.lat <- (label, dt) :: r.lat
        end)
      (round mix.queries w r.rounds);
    let db = r.busy -. b0 and dq = r.correct - q0 in
    if on then begin
      r.on_busy <- r.on_busy +. db;
      r.on_queries <- r.on_queries + dq;
      r.on_minor_words <- r.on_minor_words +. (Gc.minor_words () -. w0);
      List.iter
        (fun sp ->
          if sp.Obs.sname = "trie.build" then r.on_trie_build <- r.on_trie_build +. sp.Obs.sdur)
        (Obs.spans ());
      Obs.clear_spans ()
    end
    else begin
      r.off_busy <- r.off_busy +. db;
      r.off_queries <- r.off_queries + dq
    end;
    r.rounds <- r.rounds + 1
  done;
  Obs.set_enabled false

type batch = {
  b_table : int;
  b_rows : I.rows;
  b_due : float;
  b_start : float;
  b_ack : float;
  b_epoch : (int, string) result;
}

(* Ingest batch [i] once it is [due] (default: now). *)
let ingest svc ~seed ~keys ?due ?rows i =
  let k = i mod I.feed_tables in
  let rows = I.feed_batch ~seed ~keys ?rows i in
  Option.iter (fun d -> Unix.sleepf (Float.max 0.0 (d -. now ()))) due;
  let start = now () in
  let res = Serve.ingest_rows svc ~name:(I.feed_name k) ~schema:I.feed_schema rows in
  { b_table = k; b_rows = rows; b_due = Option.value due ~default:start; b_start = start;
    b_ack = now (); b_epoch = Result.map_error Serve.error_to_string res }

(* Open loop: batch [i] is due at [t0 + i / batches_per_s] whether or not
   earlier batches have been acknowledged, and its latency runs from the
   due time, so a stall is charged to every batch queued behind it. *)
let writer_loop svc ~seed ~keys ~t0 ~deadline =
  let rec go i acc =
    let due = t0 +. (float i /. batches_per_s) in
    if due >= deadline then List.rev acc else go (i + 1) (ingest svc ~seed ~keys ~due i :: acc)
  in
  go 0 []

let late_max batches = List.fold_left (fun m b -> Float.max m (b.b_start -. b.b_due)) 0.0 batches

(* A batch that started more than one period late means the generator
   could not keep its schedule; its latency is not a valid open-loop
   sample, so it counts as failed. *)
let check_batches tally batches =
  List.iter
    (fun b ->
      let late = b.b_start -. b.b_due in
      record tally "ingest"
        (match b.b_epoch with
        | Error e -> Some e
        | Ok _ when late > 1.0 /. batches_per_s ->
            Some (Printf.sprintf "generator fell behind its schedule by %.3fs" late)
        | Ok _ -> None))
    batches

(* Every feed table's content over the run: (epoch it became visible,
   table, rows), in epoch order. *)
type acked = { a_epoch : int; a_table : int; a_rows : I.rows }

let acked batches =
  List.filter_map
    (fun b ->
      match b.b_epoch with
      | Ok e -> Some { a_epoch = e; a_table = b.b_table; a_rows = b.b_rows }
      | Error _ -> None)
    batches

let acked_log dep mix w ~seed batches =
  let initial =
    if w = Ingest then
      List.init I.feed_tables (fun k ->
          { a_epoch = dep.start_epoch; a_table = k; a_rows = initial_batch ~seed ~keys:mix.keys k })
    else []
  in
  initial @ acked batches

let feed_state log ~table ~epoch =
  List.fold_left
    (fun cur a -> if a.a_table = table && a.a_epoch <= epoch then a.a_rows else cur)
    [] log

(* A feed query must see exactly the batch acknowledged for its epoch. *)
let check_feeds tally ~perturb log (r : reader) =
  List.iter
    (fun (k, epoch, got) ->
      let batch = feed_state log ~table:k ~epoch in
      let expect = I.feed_expect batch in
      record tally (I.feed_name k)
        (I.rows_diff (if perturb then I.perturb expect else expect) got))
    r.feed_seen

(* The last batch acknowledged after [start_epoch] of every table the
   run ingested into. *)
let durable_expect ~start_epoch log =
  List.filter_map
    (fun k ->
      List.fold_left
        (fun cur a ->
          if a.a_table = k && a.a_epoch > start_epoch then Some (I.feed_name k, a.a_rows) else cur)
        None log)
    (List.init I.feed_tables Fun.id)

(* Restart recovery: open the store and replay it into a fresh engine,
   which can then answer queries. Returns the time and the recovered
   catalog. *)
let recover dir =
  let (st, eng), dt =
    timed (fun () ->
        let st, rc = Store.open_dir dir in
        let eng = Engine.create () in
        Store.replay_into rc (fun ~name ~schema rows ->
            ignore (Engine.register_rows eng ~name ~schema rows));
        (st, eng))
  in
  Store.close st;
  (dt, Engine.catalog eng)

let check_recovered tally expect cat =
  let names = Levelheaded.Catalog.names cat in
  record tally "recovery"
    (if List.length names <> List.length expect then
       Some
         (Printf.sprintf "%d tables recovered, %d expected" (List.length names)
            (List.length expect))
     else
       List.find_map
         (fun (name, rows) ->
           match Levelheaded.Catalog.find cat name with
           | None -> Some (name ^ " missing")
           | Some got -> Option.map (fun d -> name ^ ": " ^ d) (I.rows_check rows got))
         expect)

let mb bytes = float bytes /. 1e6

let live_heap_mb () =
  Gc.full_major ();
  mb ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))

(* bi and la: one side cycle. A side service over a snapshot of the
   deployment's writer (the same catalog and dictionary, its own store at
   the same sync mode, in [dir]) takes [side_batches] closed-loop ingests
   of [side_rows] rows, each due when the previous one was acknowledged.
   Then it is closed and its store recovered [side_recovers] times, each
   recovery checked. The reader's service sees no write, so its caches
   stay hot between segments. The cycle starts with a full major GC, so
   its ingests do not pay for the reader's garbage, and the recoveries
   follow another, so they do not pay for the ingests'. [first] numbers
   the cycle's first batch. *)
type side = { s_batches : batch list; s_recovers : float list; s_disk_mb : float }

let side_cycle sc dep ~seed ~keys ~tally ~dir ~first =
  Gc.full_major ();
  rm_rf dir;
  mkdir_p dir;
  let writer = Engine.of_snapshot (Engine.snapshot dep.writer) in
  let start_epoch = Engine.epoch writer in
  let store, _ = Store.open_dir dir in
  let svc = Serve.create ~store writer in
  let batches =
    List.init sc.side_batches (fun i -> ingest svc ~seed ~keys ~rows:sc.side_rows (first + i))
  in
  check_batches tally batches;
  Serve.close svc;
  let s_disk_mb = mb (dir_bytes dir) in
  let expect = durable_expect ~start_epoch (acked batches) in
  Gc.full_major ();
  let s_recovers =
    List.init sc.side_recovers (fun _ ->
        let dt, cat = recover dir in
        check_recovered tally expect cat;
        dt)
  in
  rm_rf dir;
  { s_batches = batches; s_recovers; s_disk_mb }

(* ingest: restart recovery of [dir], each checked against [expect],
   until at least [sc.recovers] recoveries and [sc.recover_s] seconds
   are done. *)
let recover_repeatedly sc tally ~dir expect =
  let t0 = now () in
  let rec go i acc =
    if i >= sc.recovers && now () -. t0 >= sc.recover_s then List.rev acc
    else begin
      let dt, cat = recover dir in
      check_recovered tally expect cat;
      go (i + 1) (dt :: acc)
    end
  in
  go 0 []
