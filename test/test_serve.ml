(* The serving layer: epoch-pinned snapshot reads racing ingest,
   admission control, epoch lifecycle, and the qcheck interleaving
   property (no query observes rows from two epochs; pinned epochs are
   never reclaimed; the generation counter is monotone). *)

module Engine = Levelheaded.Engine
module Config = Levelheaded.Config
module Serve = Lh_serve.Serve
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Table = Lh_storage.Table
module Pool = Lh_util.Pool

let schema = Schema.create [ ("k", Dtype.Int, Schema.Key); ("v", Dtype.Float, Schema.Annotation) ]

(* Deterministic table contents for generation [g]: both the row count
   and every annotation depend on [g], so any mix of two generations in
   one result is detectable from the sum alone. *)
let rows g =
  List.init (5 + g) (fun i -> [ Dtype.VInt i; Dtype.VFloat (float_of_int ((i + 1) * (g + 1))) ])

let expected_sum g =
  List.fold_left
    (fun acc row -> match row with [ _; Dtype.VFloat v ] -> acc +. v | _ -> acc)
    0.0 (rows g)

let fresh_service ?max_sessions ?queue_depth ?session_depth () =
  let eng = Engine.create ~config:{ Config.default with Config.domains = 1 } () in
  ignore (Engine.register_rows eng ~name:"t" ~schema (rows 0));
  let svc = Serve.create ?max_sessions ?queue_depth ?session_depth eng in
  (eng, svc)

let sum_of = function
  | Ok (table, _) -> (
      match Table.to_rows table with
      | [ [ Dtype.VFloat s ] ] -> s
      | r -> Alcotest.failf "unexpected result shape: %d rows" (List.length r))
  | Error e -> Alcotest.failf "query failed: %s" (Serve.error_to_string e)

let q_sum = "select sum(v) as s from t"

let check_sum name g result = Alcotest.(check (float 1e-9)) name (expected_sum g) (sum_of result)

(* ---- snapshot isolation ---- *)

let test_pinned_reads () =
  let _, svc = fresh_service () in
  let s = Serve.open_session svc in
  let e0 = Serve.pin s in
  check_sum "g0 before ingest" 0 (Serve.query_epoch s q_sum);
  (match Serve.ingest_rows svc ~name:"t" ~schema (rows 1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ingest: %s" (Serve.error_to_string e));
  (* the pinned session still reads generation 0 … *)
  (match Serve.query_epoch s q_sum with
  | Ok (_, e) as r ->
      Alcotest.(check int) "pinned epoch id" e0 e;
      check_sum "g0 after ingest (pinned)" 0 r
  | Error e -> Alcotest.failf "pinned query: %s" (Serve.error_to_string e));
  (* … an unpinned session reads generation 1 *)
  let s2 = Serve.open_session svc in
  check_sum "g1 fresh session" 1 (Serve.query_epoch s2 q_sum);
  Alcotest.(check bool) "current moved on" true (Serve.current_epoch svc > e0);
  Serve.close_session s2;
  Serve.close_session s;
  Serve.close svc

let test_epoch_retire () =
  let _, svc = fresh_service () in
  let s = Serve.open_session svc in
  let e0 = Serve.pin s in
  ignore (Result.get_ok (Serve.ingest_rows svc ~name:"t" ~schema (rows 1)));
  (* superseded but pinned: still live *)
  let live = Serve.epochs svc in
  Alcotest.(check bool) "pinned epoch live" true (List.exists (fun (id, _, _) -> id = e0) live);
  Alcotest.(check int) "two live epochs" 2 (List.length live);
  Serve.unpin s;
  let live = Serve.epochs svc in
  Alcotest.(check bool) "reclaimed after unpin" false
    (List.exists (fun (id, _, _) -> id = e0) live);
  Alcotest.(check int) "one live epoch" 1 (List.length live);
  Serve.close svc

let test_ingest_error_keeps_epoch () =
  let _, svc = fresh_service () in
  let before = Serve.current_epoch svc in
  (* ragged row: the writer rejects it install-on-success *)
  (match Serve.ingest_rows svc ~name:"t" ~schema [ [ Dtype.VInt 1 ] ] with
  | Ok _ -> Alcotest.fail "ragged ingest should fail"
  | Error (Serve.Engine_error _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Serve.error_to_string e));
  Alcotest.(check int) "epoch unchanged" before (Serve.current_epoch svc);
  let s = Serve.open_session svc in
  check_sum "old generation still served" 0 (Serve.query_epoch s q_sum);
  Serve.close svc

(* ---- admission control ---- *)

let test_session_cap () =
  let _, svc = fresh_service ~max_sessions:2 () in
  let _s1 = Serve.open_session svc in
  let s2 = Serve.open_session svc in
  (match Serve.open_session svc with
  | (_ : Serve.session) -> Alcotest.fail "third session should be rejected"
  | exception Serve.Error (Serve.Overloaded _) -> ());
  Serve.close_session s2;
  let (_ : Serve.session) = Serve.open_session svc in
  Serve.close svc

let test_queue_depth () =
  let _, svc = fresh_service ~queue_depth:1 ~session_depth:8 () in
  (* no pool workers are guaranteed here, so occupy the only admission
     slot via a second session's in-flight state: simplest determinstic
     probe is the session_depth variant below; here just check that a
     closed service rejects. *)
  Serve.close svc;
  let eng = Engine.create () in
  ignore (Engine.register_rows eng ~name:"t" ~schema (rows 0));
  let svc2 = Serve.create ~queue_depth:4 eng in
  let s = Serve.open_session svc2 in
  check_sum "works before close" 0 (Serve.query_epoch s q_sum);
  Serve.close svc2;
  match Serve.query s q_sum with
  | Ok _ -> Alcotest.fail "query after close should fail"
  | Error (Serve.Closed _) -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Serve.error_to_string e)

let test_session_depth_rejects () =
  let _, svc = fresh_service ~session_depth:1 () in
  let s = Serve.open_session svc in
  (* admission is taken at submit time: with one slot, a second submit
     before the first is awaited must be rejected when no worker has
     drained the first yet — with zero workers, submit runs
     synchronously, so both succeed. Either way the typed surface holds:
     every outcome is Ok or Overloaded, never an exception. *)
  let t1 = Serve.submit s q_sum in
  let t2 = Serve.submit s q_sum in
  let ok_or_overloaded tk =
    match Serve.await tk with
    | Ok _ -> true
    | Error (Serve.Overloaded _) -> true
    | Error e -> Alcotest.failf "unexpected: %s" (Serve.error_to_string e)
  in
  Alcotest.(check bool) "t1" true (ok_or_overloaded t1);
  Alcotest.(check bool) "t2" true (ok_or_overloaded t2);
  Serve.close svc

(* ---- prepared statements across epochs ---- *)

let test_prepared_revalidates () =
  let _, svc = fresh_service () in
  let s = Serve.open_session svc in
  let p = Result.get_ok (Serve.prepare s "select sum(v) as s from t where k >= $1") in
  let exec g =
    match Serve.exec_prepared p [ Dtype.VInt 0 ] with
    | Ok (table, _) as r ->
        ignore table;
        check_sum (Printf.sprintf "prepared g%d" g) g r
    | Error e -> Alcotest.failf "exec: %s" (Serve.error_to_string e)
  in
  exec 0;
  ignore (Result.get_ok (Serve.ingest_rows svc ~name:"t" ~schema (rows 1)));
  (* the statement transparently re-plans against the new epoch *)
  exec 1;
  Serve.close svc

(* ---- async submission over the pool job lane ---- *)

let test_submit_await () =
  Pool.ensure_workers (Pool.global ()) 2;
  let _, svc = fresh_service () in
  let s1 = Serve.open_session svc in
  let s2 = Serve.open_session svc in
  let tickets = List.init 8 (fun i -> Serve.submit (if i mod 2 = 0 then s1 else s2) q_sum) in
  List.iter (fun tk -> check_sum "async sum" 0 (Serve.await tk)) tickets;
  Serve.close svc

(* A real race: one domain queries in a loop while this domain ingests
   new generations. Every result must match exactly one generation's
   expectation — never a blend. *)
let test_concurrent_reader_vs_ingest () =
  Pool.ensure_workers (Pool.global ()) 2;
  let _, svc = fresh_service () in
  let gens = 6 in
  let reader =
    Domain.spawn (fun () ->
        let s = Serve.open_session svc in
        let sums = ref [] in
        for _ = 1 to 40 do
          match Serve.query_epoch s q_sum with
          | Ok (table, _) -> (
              match Table.to_rows table with
              | [ [ Dtype.VFloat v ] ] -> sums := v :: !sums
              | _ -> ())
          | Error e -> Alcotest.failf "reader: %s" (Serve.error_to_string e)
        done;
        Serve.close_session s;
        !sums)
  in
  for g = 1 to gens - 1 do
    match Serve.ingest_rows svc ~name:"t" ~schema (rows g) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "ingest g%d: %s" g (Serve.error_to_string e)
  done;
  let sums = Domain.join reader in
  let valid = List.init gens expected_sum in
  List.iter
    (fun s ->
      if not (List.exists (fun v -> Float.abs (v -. s) < 1e-9) valid) then
        Alcotest.failf "sum %g matches no single generation" s)
    sums;
  (* all retired epochs were reclaimed once the reader closed *)
  Alcotest.(check int) "live epochs" 1 (List.length (Serve.epochs svc));
  Serve.close svc

(* ---- qcheck: random interleavings ---- *)

type op = Query of int | Ingest | Pin of int | Unpin of int

let op_gen nsessions =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Query i) (int_range 0 (nsessions - 1));
        return Ingest;
        map (fun i -> Pin i) (int_range 0 (nsessions - 1));
        map (fun i -> Unpin i) (int_range 0 (nsessions - 1));
      ])

let qcheck_interleavings =
  let nsessions = 3 in
  Helpers.qtest ~count:60 "serve interleavings hold the epoch invariants"
    QCheck2.Gen.(list_size (int_range 1 40) (op_gen nsessions))
    (fun ops ->
      let _, svc = fresh_service () in
      let sessions = Array.init nsessions (fun _ -> Serve.open_session svc) in
      (* epoch id -> generation, filled as ingest publishes *)
      let gen_of = Hashtbl.create 8 in
      Hashtbl.replace gen_of (Serve.current_epoch svc) 0;
      let gen = ref 0 in
      let last_current = ref (Serve.current_epoch svc) in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun op ->
          (match op with
          | Query i -> (
              match Serve.query_epoch sessions.(i) q_sum with
              | Ok (table, eid) -> (
                  (* the result must be exactly the generation of the
                     epoch the query pinned — one epoch, not a blend *)
                  match (Table.to_rows table, Hashtbl.find_opt gen_of eid) with
                  | [ [ Dtype.VFloat v ] ], Some g ->
                      check (Float.abs (v -. expected_sum g) < 1e-9)
                  | _ -> check false)
              | Error _ -> check false)
          | Ingest -> (
              match Serve.ingest_rows svc ~name:"t" ~schema (rows (!gen + 1)) with
              | Ok eid ->
                  incr gen;
                  Hashtbl.replace gen_of eid !gen
              | Error _ -> check false)
          | Pin i -> ignore (Serve.pin sessions.(i))
          | Unpin i -> Serve.unpin sessions.(i));
          (* generation counter monotone *)
          let cur = Serve.current_epoch svc in
          check (cur >= !last_current);
          last_current := cur;
          (* pinned epochs never reclaimed *)
          let live = Serve.epochs svc in
          Array.iter
            (fun s ->
              match Serve.pinned_epoch s with
              | Some id -> check (List.exists (fun (eid, _, _) -> eid = id) live)
              | None -> ())
            sessions;
          (* the current epoch is always live and unretired *)
          check (List.exists (fun (eid, _, retired) -> eid = cur && not retired) live))
        ops;
      Serve.close svc;
      !ok)

(* ---- pool job lane ---- *)

let test_pool_submit_fairness () =
  let pool = Pool.create ~workers:1 in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let order = ref [] in
  let done_ = ref 0 in
  let gate_started = ref false in
  let gate_open = ref false in
  let njobs = 9 in
  (* Park the single worker on a gate job so all nine jobs are enqueued
     before any is serviced; the drain order is then deterministic. *)
  Pool.submit pool ~group:99 (fun () ->
      Mutex.lock lock;
      gate_started := true;
      Condition.broadcast cond;
      while not !gate_open do
        Condition.wait cond lock
      done;
      Mutex.unlock lock);
  Mutex.lock lock;
  while not !gate_started do
    Condition.wait cond lock
  done;
  (* three groups, three jobs each, whole groups in sequence: a FIFO
     would drain group 0 first; round-robin must interleave 0,1,2,… *)
  for g = 0 to 2 do
    for k = 0 to 2 do
      Pool.submit pool ~group:g (fun () ->
          Mutex.lock lock;
          order := (g, k) :: !order;
          incr done_;
          Condition.broadcast cond;
          Mutex.unlock lock)
    done
  done;
  gate_open := true;
  Condition.broadcast cond;
  while !done_ < njobs do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  let got = List.rev !order in
  let expect = [ (0, 0); (1, 0); (2, 0); (0, 1); (1, 1); (2, 1); (0, 2); (1, 2); (2, 2) ] in
  Alcotest.(check (list (pair int int))) "round-robin drain order" expect got;
  Pool.shutdown pool

let test_pool_submit_sync_when_no_workers () =
  let pool = Pool.create ~workers:0 in
  let ran = ref false in
  Pool.submit pool ~group:0 (fun () -> ran := true);
  Alcotest.(check bool) "ran synchronously" true !ran;
  Pool.shutdown pool;
  let ran2 = ref false in
  Pool.submit pool ~group:1 (fun () -> ran2 := true);
  Alcotest.(check bool) "ran after shutdown" true !ran2

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir f =
  let dir = Filename.temp_file "lh_serve_test" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- the service-wide trie cache ---- *)

module Report = Lh_obs.Report

let cval name (r : Report.t) = Option.value (List.assoc_opt name r.Report.counters) ~default:0

let kv_schema name =
  Schema.create [ ("k", Dtype.Int, Schema.Key); (name, Dtype.Float, Schema.Annotation) ]

let kv_rows n scale =
  List.init n (fun i -> [ Dtype.VInt i; Dtype.VFloat (float_of_int (i * scale)) ])

(* a(k, x) joins b(k, y); c is unrelated to the join. *)
let join_engine () =
  let eng = Engine.create ~config:{ Config.default with Config.domains = 1 } () in
  ignore (Engine.register_rows eng ~name:"a" ~schema:(kv_schema "x") (kv_rows 40 1));
  ignore (Engine.register_rows eng ~name:"b" ~schema:(kv_schema "y") (kv_rows 30 2));
  ignore (Engine.register_rows eng ~name:"c" ~schema:(kv_schema "z") (kv_rows 10 3));
  eng

let q_join = "select count(*) as n, sum(a.x * b.y) as s from a, b where a.k = b.k"

let query_rows s sql =
  match Serve.query_epoch s sql with
  | Ok (t, e) -> (Table.to_rows t, e)
  | Error e -> Alcotest.failf "query: %s" (Serve.error_to_string e)

let ingest_ok svc ~name ~schema rows =
  match Serve.ingest_rows svc ~name ~schema rows with
  | Ok e -> e
  | Error e -> Alcotest.failf "ingest %s: %s" name (Serve.error_to_string e)

let test_unrelated_ingest_stays_warm () =
  let svc = Serve.create (join_engine ()) in
  let s = Serve.open_session svc in
  let warm, e0 = query_rows s q_join in
  let e1 = ingest_ok svc ~name:"c" ~schema:(kv_schema "z") (kv_rows 11 3) in
  let (rows, e), r = Report.with_session (fun () -> query_rows s q_join) in
  Alcotest.(check bool) "ran on the new epoch" true (e = e1 && e1 > e0);
  Alcotest.(check int) "no trie miss" 0 (cval "trie_cache.miss" r);
  Alcotest.(check int) "no trie built" 0 (cval "trie.built" r);
  Helpers.check_rows_equal "same rows" warm rows;
  Serve.close svc

let test_joined_ingest_misses () =
  let svc = Serve.create (join_engine ()) in
  let s = Serve.open_session svc in
  let before, _ = query_rows s q_join in
  ignore (ingest_ok svc ~name:"b" ~schema:(kv_schema "y") (kv_rows 20 5));
  let (rows, _), r = Report.with_session (fun () -> query_rows s q_join) in
  Alcotest.(check bool) "b's new version misses" true (cval "trie_cache.miss" r >= 1);
  Alcotest.(check bool) "answer changed" false (Lh_qgen.Rows.equal before rows);
  let fresh = Engine.create () in
  ignore (Engine.register_rows fresh ~name:"a" ~schema:(kv_schema "x") (kv_rows 40 1));
  ignore (Engine.register_rows fresh ~name:"b" ~schema:(kv_schema "y") (kv_rows 20 5));
  Helpers.check_rows_equal "new answer" (Table.to_rows (Engine.query fresh q_join)) rows;
  Serve.close svc

(* K sessions racing the same cold query on one pinned epoch build each
   base trie exactly once: a miss during a build in progress waits for
   it. *)
let test_single_flight () =
  let k = 4 in
  Pool.ensure_workers (Pool.global ()) k;
  let base_tries =
    let eng = join_engine () in
    cval "trie.built" (snd (Report.with_session (fun () -> ignore (Engine.query eng q_join))))
  in
  Alcotest.(check int) "two base tries" 2 base_tries;
  let svc = Serve.create ~max_sessions:k (join_engine ()) in
  let sessions = List.init k (fun _ -> Serve.open_session svc) in
  let e = List.fold_left (fun _ s -> Serve.pin s) 0 sessions in
  let results, r =
    Report.with_session (fun () ->
        List.map (fun s -> Serve.submit s q_join) sessions |> List.map Serve.await)
  in
  Alcotest.(check int) "each base trie built once" base_tries (cval "trie.built" r);
  let first = ref None in
  List.iter
    (function
      | Ok (t, e') ->
          Alcotest.(check int) "pinned epoch" e e';
          let rows = Table.to_rows t in
          (match !first with
          | None -> first := Some rows
          | Some f -> Helpers.check_rows_equal "same answer" f rows)
      | Error err -> Alcotest.failf "session query: %s" (Serve.error_to_string err))
    results;
  Serve.close svc

let test_cache_follows_live_versions () =
  let eng = join_engine () in
  let svc = Serve.create eng in
  let s = Serve.open_session svc in
  for g = 1 to 200 do
    ignore (ingest_ok svc ~name:"b" ~schema:(kv_schema "y") (kv_rows (10 + (g mod 7)) g));
    ignore (query_rows s q_join)
  done;
  Alcotest.(check int) "old epochs reclaimed" 1 (List.length (Serve.epochs svc));
  let live =
    List.map (fun (t : Table.t) -> t.Table.id) (Levelheaded.Catalog.tables (Engine.catalog eng))
  in
  let cached = Serve.cached_versions svc in
  Alcotest.(check bool) "cache not empty" true (cached <> []);
  List.iter
    (fun v ->
      if not (List.mem v live) then Alcotest.failf "cache holds dead table version %d" v)
    cached;
  Serve.close svc

(* ---- forks and rollback stay isolated ---- *)

let tag_schema =
  Schema.create
    [
      ("k", Dtype.Int, Schema.Key);
      ("tag", Dtype.String, Schema.Key);
      ("v", Dtype.Float, Schema.Annotation);
    ]

let tag_rows tags =
  List.mapi
    (fun i tag -> [ Dtype.VInt i; Dtype.VString tag; Dtype.VFloat (float_of_int (i + 1)) ])
    tags

let q_tags = "select tag, sum(v) as v from s group by tag"
let q_gamma = "select count(*) as n from s where tag = 'gamma'"

let catalog_rows eng =
  List.map (fun (name, _, rows) -> (name, Lh_qgen.Rows.canonical rows)) (Engine.dump eng)

let test_forked_writer_isolated () =
  let parent = Engine.create () in
  ignore (Engine.register_rows parent ~name:"s" ~schema:tag_schema (tag_rows [ "alpha"; "beta" ]));
  let size0 = Lh_storage.Dict.size (Engine.dict parent) in
  let tags0 = Table.to_rows (Engine.query parent q_tags) in
  let snap = Engine.snapshot parent in
  let writer = Engine.of_snapshot snap in
  ignore
    (Engine.register_rows writer ~name:"s" ~schema:tag_schema
       (tag_rows [ "alpha"; "gamma"; "delta" ]));
  ignore (Engine.register_rows writer ~name:"u" ~schema:tag_schema (tag_rows [ "epsilon" ]));
  Helpers.check_rows_equal "writer sees its ingest" [ [ Dtype.VInt 1 ] ]
    (Table.to_rows (Engine.query writer q_gamma));
  Alcotest.(check int) "parent dictionary unchanged" size0
    (Lh_storage.Dict.size (Engine.dict parent));
  Helpers.check_rows_equal "parent answers unchanged" tags0
    (Table.to_rows (Engine.query parent q_tags));
  Helpers.check_rows_equal "parent never sees gamma" [ [ Dtype.VInt 0 ] ]
    (Table.to_rows (Engine.query parent q_gamma));
  Helpers.check_rows_equal "a second engine on the snapshot is unaffected" tags0
    (Table.to_rows (Engine.query (Engine.of_snapshot snap) q_tags))

let test_failed_publish_rolls_back () =
  with_temp_dir (fun dir ->
      let eng = Engine.create () in
      ignore (Engine.register_rows eng ~name:"s" ~schema:tag_schema (tag_rows [ "alpha"; "beta" ]));
      ignore (Engine.register_rows eng ~name:"t" ~schema (rows 0));
      let store, _ = Lh_durable.Store.open_dir dir in
      let svc = Serve.create ~store eng in
      let before = catalog_rows eng in
      let e0 = Serve.current_epoch svc in
      Fun.protect ~finally:Lh_fault.Fault.disarm_all (fun () ->
          List.iter
            (fun name ->
              Lh_fault.Fault.arm ~trigger:(Lh_fault.Fault.Nth 1) "epoch.publish";
              let rows = tag_rows [ "gamma"; "beta" ] in
              (match Serve.ingest_rows svc ~name ~schema:tag_schema rows with
              | Ok _ -> Alcotest.failf "ingest into %s published despite the fault" name
              | Error _ -> ());
              Lh_fault.Fault.disarm_all ();
              Alcotest.(check int) "served epoch unchanged" e0 (Serve.current_epoch svc);
              if catalog_rows eng <> before then
                Alcotest.failf "writer catalog changed by the failed ingest into %s" name)
            [ "s"; "fresh" ]);
      let s = Serve.open_session svc in
      ignore (ingest_ok svc ~name:"s" ~schema:tag_schema (tag_rows [ "gamma" ]));
      Helpers.check_rows_equal "retry publishes" [ [ Dtype.VInt 1 ] ] (fst (query_rows s q_gamma));
      Serve.close svc)

(* ---- epoch cost does not follow the dictionary ---- *)

let allocated f =
  let b0 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.allocated_bytes () -. b0

(* Dictionary entries, the allocation of one [Engine.snapshot], and the
   smallest allocation of a 1-row durable ingest, over TPC-H at [sf]. *)
let epoch_costs sf =
  with_temp_dir (fun dir ->
      let eng = Engine.create ~config:{ Config.default with Config.domains = 1 } () in
      List.iter (Engine.register eng) (Lh_datagen.Tpch.generate ~dict:(Engine.dict eng) ~sf ());
      let snapshot = allocated (fun () -> Engine.snapshot eng) in
      let store, _ = Lh_durable.Store.open_dir dir in
      let svc = Serve.create ~store eng in
      let ingest i =
        allocated (fun () ->
            ingest_ok svc ~name:"probe" ~schema [ [ Dtype.VInt i; Dtype.VFloat 1.0 ] ])
      in
      let ingest = List.fold_left Float.min Float.infinity (List.init 3 ingest) in
      Serve.close svc;
      (Lh_storage.Dict.size (Engine.dict eng), snapshot, ingest))

let test_epoch_cost_flat () =
  let small_n, small_snap, small_ingest = epoch_costs 0.002 in
  let large_n, large_snap, large_ingest = epoch_costs 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "dictionaries differ (%d vs %d entries)" small_n large_n)
    true (large_n > 10 * small_n);
  let flat what a b =
    if Float.max a b > 1.5 *. Float.min a b then
      Alcotest.failf "%s: Gc.allocated_bytes grew by %.0f at %d entries but by %.0f at %d" what a
        small_n b large_n
  in
  flat "Engine.snapshot" small_snap large_snap;
  flat "a 1-row durable ingest" small_ingest large_ingest

let () =
  Alcotest.run "lh_serve"
    [
      ( "snapshot",
        [
          Alcotest.test_case "pinned reads survive ingest" `Quick test_pinned_reads;
          Alcotest.test_case "retire on unpin" `Quick test_epoch_retire;
          Alcotest.test_case "failed ingest keeps epoch" `Quick test_ingest_error_keeps_epoch;
        ] );
      ( "admission",
        [
          Alcotest.test_case "session cap" `Quick test_session_cap;
          Alcotest.test_case "closed service rejects" `Quick test_queue_depth;
          Alcotest.test_case "session depth typed rejection" `Quick test_session_depth_rejects;
        ] );
      ( "prepared",
        [ Alcotest.test_case "revalidates across epochs" `Quick test_prepared_revalidates ] );
      ( "concurrent",
        [
          Alcotest.test_case "submit/await" `Quick test_submit_await;
          Alcotest.test_case "reader races ingest" `Quick test_concurrent_reader_vs_ingest;
        ] );
      ("interleavings", [ qcheck_interleavings ]);
      ( "shared-cache",
        [
          Alcotest.test_case "unrelated ingest stays warm" `Quick test_unrelated_ingest_stays_warm;
          Alcotest.test_case "joined ingest misses" `Quick test_joined_ingest_misses;
          Alcotest.test_case "single-flight builds" `Quick test_single_flight;
          Alcotest.test_case "cache follows live versions" `Quick
            test_cache_follows_live_versions;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "forked writer" `Quick test_forked_writer_isolated;
          Alcotest.test_case "failed publish rolls back" `Quick test_failed_publish_rolls_back;
          Alcotest.test_case "epoch cost flat in dictionary size" `Slow test_epoch_cost_flat;
        ] );
      ( "pool-jobs",
        [
          Alcotest.test_case "group round-robin" `Quick test_pool_submit_fairness;
          Alcotest.test_case "sync fallback" `Quick test_pool_submit_sync_when_no_workers;
        ] );
    ]
