(* The traced run's per-layer numbers. Counter-derived metrics come from
   the telemetry counters over the window's traced rounds; timings come
   from calling each layer's public functions from here, on the run's
   own final state, after the window. Nothing inside lib/ is
   instrumented for this. *)

module Engine = Levelheaded.Engine
module Serve = Lh_serve.Serve
module Store = Lh_durable.Store
module Obs = Lh_obs.Obs
module I = Inputs
open Service

let counter_names =
  [ "plan_cache.hit"; "plan_cache.miss"; "trie_cache.hit"; "trie_cache.miss"; "trie.built";
    "wcoj.intersections"; "set.inter.bb"; "set.inter.bu"; "set.inter.uu"; "set.count_only";
    "rows.emitted"; "dense_cache.hit"; "dense_cache.miss"; "wal.fsyncs" ]

let counters () =
  let snap = Obs.snapshot () in
  List.map (fun n -> (n, Option.value (List.assoc_opt n snap) ~default:0)) counter_names

let ratio a b = if b = 0.0 then 0.0 else a /. b
let mean xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float (List.length xs)

(* Each fixed query on a fresh view of the final state:
   - parse: Parser.parse + Normalize.lift_literals;
   - plan: Engine.prepare after a plan-cache reset, minus parse;
   - trie build: the first execution minus a warm one;
   - exec: a warm Stmt.exec;
   - serve: a warm Serve.query on the still-open service, alternated
     with the warm execs so both see the same machine. *)
type per_query = { parse : float; plan : float; trie_build : float; exec : float; serve : float }

let query_probe reps snap session sql =
  let parse =
    median_time (reps * 10) (fun () ->
        ignore (Lh_sql.Normalize.lift_literals (Lh_sql.Parser.parse sql)))
  in
  let v = Engine.of_snapshot snap in
  let plan =
    median_time reps (fun () ->
        Engine.reset_plan_cache v;
        ignore (Engine.prepare v sql))
  in
  let stmt = Engine.prepare v sql in
  let first = snd (timed (fun () -> Engine.Stmt.exec stmt [])) in
  ignore (Serve.query session sql);
  let pairs =
    List.init reps (fun _ ->
        ( snd (timed (fun () -> Engine.Stmt.exec stmt [])),
          snd (timed (fun () -> Serve.query session sql)) ))
  in
  let exec = median (List.map fst pairs) in
  let serve = median (List.map snd pairs) in
  { parse; plan = plan -. parse; trie_build = first -. exec; exec; serve }

(* Store.log_batch over the run's batches on a scratch store at the
   default sync mode, then open_dir and replay_into on it. *)
let durable_probe reps ~dir batches =
  rm_rf dir;
  mkdir_p dir;
  let value_bytes acc v = acc + String.length (Lh_storage.Dtype.value_to_string v) + 1 in
  let rows_bytes rows = List.fold_left (List.fold_left value_bytes) 0 rows in
  let f0 = List.assoc "wal.fsyncs" (counters ()) in
  let st, _ = Store.open_dir dir in
  let log_times =
    Obs.with_enabled true (fun () ->
        List.map
          (fun (k, rows) ->
            let name = I.feed_name k in
            snd (timed (fun () -> Store.log_batch st ~name ~schema:I.feed_schema rows)))
          batches)
  in
  Store.close st;
  let fsyncs = List.assoc "wal.fsyncs" (counters ()) - f0 in
  let user = List.fold_left (fun acc (_, rows) -> acc + rows_bytes rows) 0 batches in
  let wal = dir_bytes dir in
  let open_dir = median_time reps (fun () -> Store.close (fst (Store.open_dir dir))) in
  let st, rc = Store.open_dir dir in
  Store.close st;
  let replay =
    median_time reps (fun () ->
        let eng = Engine.create () in
        Store.replay_into rc (fun ~name ~schema rows ->
            ignore (Engine.register_rows eng ~name ~schema rows)))
  in
  rm_rf dir;
  [ ("durable.log_batch_s", median log_times);
    ("durable.fsyncs_per_ingest", ratio (float fsyncs) (float (List.length batches)));
    ("durable.wal_bytes_per_user_byte", ratio (float wal) (float user));
    ("durable.open_dir_s", open_dir); ("durable.replay_s", replay) ]

(* [batches]: the run's ingested (table, rows); [late_max]: the open-loop
   writer's worst lateness (0 without one). *)
let metrics sc dep mix ~(reader : reader) ~c0 ~c1 ~late_max ~batches ~scratch =
  let reps = sc.reps in
  let d name = float (List.assoc name c1 - List.assoc name c0) in
  let traced_q = float reader.on_queries in
  (* the writer is idle from here on, so snapshotting it is safe *)
  let dict_entries = Lh_storage.Dict.size (Engine.dict dep.writer) in
  let snapshot_s = median_time reps (fun () -> ignore (Engine.snapshot dep.writer)) in
  let snap = Engine.snapshot dep.writer in
  let pq = Array.map (fun (_, sql) -> query_probe reps snap dep.session sql) mix.queries in
  Serve.close dep.svc;
  let field f = mean (Array.to_list (Array.map f pq)) in
  let exec_s = field (fun p -> p.exec) in
  let kernels = List.map (fun k -> (k.I.k_label, median_time reps k.I.k_run)) mix.kernels in
  let over_kernel label =
    match List.assoc_opt label kernels with
    | None -> 0.0
    | Some kt ->
        let rec index i = if fst mix.queries.(i) = label then i else index (i + 1) in
        ratio pq.(index 0).exec kt
  in
  let register_s =
    median_time reps (fun () ->
        ignore
          (Engine.register_rows dep.writer ~name:"probe_feed" ~schema:I.feed_schema
             (I.feed_batch ~seed:0 ~keys:mix.keys 0)))
  in
  let inter = d "set.inter.bb" +. d "set.inter.bu" +. d "set.inter.uu" in
  let hit_ratio c = ratio (d (c ^ ".hit")) (d (c ^ ".hit") +. d (c ^ ".miss")) in
  let durable = durable_probe reps ~dir:(Filename.concat scratch "probe-store") batches in
  [ ("sql.parse_s", field (fun p -> p.parse)); ("core.plan_s", field (fun p -> p.plan));
    ("core.plan_cache_hit_ratio", hit_ratio "plan_cache");
    ("storage.trie_build_s", ratio reader.on_trie_build traced_q);
    ("storage.trie_build_cold_s", field (fun p -> p.trie_build));
    ("core.trie_cache_hit_ratio", hit_ratio "trie_cache");
    ("storage.tries_built_per_query", ratio (d "trie.built") traced_q);
    ("storage.dict_entries", float dict_entries); ("core.exec_s", exec_s);
    ("set.intersections_per_query", ratio (d "wcoj.intersections") traced_q);
    ("set.inter_bb_share", ratio (d "set.inter.bb") inter);
    ("set.inter_bu_share", ratio (d "set.inter.bu") inter);
    ("set.inter_uu_share", ratio (d "set.inter.uu") inter);
    ("set.count_only_per_query", ratio (d "set.count_only") traced_q);
    ("core.rows_emitted_per_query", ratio (d "rows.emitted") traced_q);
    ("blas.kernel_s", mean (List.map snd kernels)) ]
  @ List.map (fun k -> ("la.exec_over_kernel." ^ k, over_kernel k)) Metrics.la_kernels
  @ [ ("core.dense_cache_hit_ratio", hit_ratio "dense_cache");
      ( "serve.query_overhead_s",
        field (fun p -> p.serve -. p.exec) );
      ("serve.snapshot_s", snapshot_s); ("core.register_rows_s", register_s) ]
  @ durable
  @ [ ("gc.minor_words_per_query", ratio reader.on_minor_words traced_q);
      ( "obs.trace_overhead",
        ratio
          (ratio traced_q reader.on_busy)
          (ratio (float reader.off_queries) reader.off_busy) );
      ("gen.late_max_s", late_max) ]
