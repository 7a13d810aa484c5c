module T = Lh_storage.Table
module Schema = Lh_storage.Schema
module Dtype = Lh_storage.Dtype
module Obs = Lh_obs.Obs
module Hist = Lh_obs.Hist
module Ast = Lh_sql.Ast
module Normalize = Lh_sql.Normalize

let c_rows_emitted = Obs.counter "rows.emitted"
let c_dense_hit = Obs.counter "dense_cache.hit"
let c_dense_miss = Obs.counter "dense_cache.miss"
let c_plan_hit = Obs.counter "plan_cache.hit"
let c_plan_miss = Obs.counter "plan_cache.miss"
let c_plan_evict = Obs.counter "plan_cache.evict"
let c_profile_records = Obs.counter "profile.records"
let c_slowlog_lines = Obs.counter "slowlog.lines"

(* Latency histograms (lib/obs): end-to-end plus one per pipeline phase,
   fed by [~record] hooks on the existing spans — disabled runs still pay
   only the span's single atomic load. The trie-build and BLAS-kernel
   histograms are registered by Executor / Blas_bridge; re-registering by
   name here returns the same cells. *)
let h_query = Hist.histogram "query.latency"
let h_parse = Hist.histogram "phase.parse"
let h_plan = Hist.histogram "phase.plan"
let h_bind = Hist.histogram "phase.bind"
let h_scan = Hist.histogram "phase.scan"
let h_wcoj = Hist.histogram "phase.wcoj"
let h_blas = Hist.histogram "phase.blas"
let h_finalize = Hist.histogram "phase.finalize"

(* Per-query phase durations are recovered by diffing these histograms'
   running sums around the query (the engine is single-caller per
   instance, so the delta is exactly this query's work). *)
let profile_phases =
  [
    ("parse", h_parse);
    ("plan", h_plan);
    ("bind", h_bind);
    ("trie_build", Hist.histogram "phase.trie_build");
    ("scan", h_scan);
    ("wcoj", h_wcoj);
    ("blas", h_blas);
    ("blas_kernel", Hist.histogram "phase.blas_kernel");
    ("finalize", h_finalize);
  ]

(* Fault sites covering the engine's own control points; the executor,
   storage and BLAS layers register their sites locally. *)
let fault_query = Lh_fault.Fault.site "engine.query"
let fault_prepare = Lh_fault.Fault.site "engine.prepare"
let fault_bind = Lh_fault.Fault.site "engine.bind"
let fault_plan_fill = Lh_fault.Fault.site "plan_cache.fill"

(* ------------------------------------------------------------------ *)
(* Typed errors                                                         *)

module Error = struct
  type t =
    | Parse_error of string
    | Unsupported of string
    | Unknown_table of string
    | Unknown_column of string
    | Budget_exceeded
    | Semantic of string
    | Fault_injected of string

  let to_string = function
    | Parse_error m -> Printf.sprintf "parse error: %s" m
    | Unsupported m -> Printf.sprintf "unsupported query: %s" m
    | Unknown_table n -> Printf.sprintf "unknown table %S" n
    | Unknown_column n -> Printf.sprintf "unknown column %S" n
    | Budget_exceeded -> "budget exceeded"
    | Semantic m -> m
    | Fault_injected site -> Printf.sprintf "fault injected at site %S" site

  let pp fmt e = Format.pp_print_string fmt (to_string e)
end

exception Error of Error.t

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Engine.Error: %s" (Error.to_string e))
    | _ -> None)

let err e = raise (Error e)
let semantic fmt = Printf.ksprintf (fun s -> err (Error.Semantic s)) fmt

(* Budget exceptions deliberately pass through unclassified so callers
   (e.g. the benchmark harness) can distinguish OOM from timeout; anything
   else unrecognized is a bug and propagates raw. *)
let classify = function
  | Lh_sql.Lexer.Lex_error m | Lh_sql.Parser.Parse_error m -> Some (Error.Parse_error m)
  | Logical.Unknown_table n -> Some (Error.Unknown_table n)
  | Logical.Unknown_column n -> Some (Error.Unknown_column n)
  | Logical.Unsupported_query m | Compile.Unsupported m -> Some (Error.Unsupported m)
  | Lh_fault.Fault.Injected site -> Some (Error.Fault_injected site)
  | Failure m -> Some (Error.Semantic m)
  | _ -> None

let wrap f =
  try f () with
  | Error _ as e -> raise e
  | exn -> ( match classify exn with Some e -> err e | None -> raise exn)

(* ------------------------------------------------------------------ *)

type centry = { c_plan : plan; mutable c_used : int }

and plan = {
  p_ast : Ast.query;  (** parameterized (normalized) AST *)
  p_nparams : int;
  mutable p_lq : Logical.t;  (** unbound: filters/owners may hold [Param]s *)
  mutable p_ghd : Ghd.t option;  (** [None] on the scan path (no vertices) *)
  mutable p_pnode : Executor.pnode option;
  mutable p_epoch : int;
}

(* Accumulator for the in-flight query's profile: pipeline stages fill it
   in as facts become known (normalized text, cache disposition, chosen
   path). Only allocated when telemetry is enabled. *)
type prof_acc = {
  mutable a_sql : string;
  mutable a_plan : string;
  mutable a_path : string;
  mutable a_cache : string;
  mutable a_rows_in : int;
  mutable a_rows_out : int;
}

(* Tries and dense views of table versions: private to one engine, or
   shared by every view a service hands out. *)
type cache = { tries : Executor.trie_cache; dense : Blas_bridge.dense_info option Vcache.t }

type t = {
  cat : Catalog.t;
  mutable cfg : Config.t;
  cache : cache;
  plans : (string, centry) Hashtbl.t;  (** normalized-AST text -> plan *)
  mutable plan_tick : int;  (** logical clock for LRU eviction *)
  mutable epoch : int;  (** bumped on catalog / plan-relevant config change *)
  mutable last_prof : Profile.t option;
  mutable prof_sink : (Profile.t -> unit) option;
  mutable prof : prof_acc option;  (** in-flight accumulator *)
}

type stmt = { s_eng : t; s_sql : string; s_plan : plan }

type path = Scan_path | Wcoj_path | Blas_path

type explain = { epath : path; efhw : float option; etext : string }

let new_cache () = { tries = Vcache.create (); dense = Vcache.create () }

let retain_cache c ~live =
  Vcache.retain c.tries ~live;
  Vcache.retain c.dense ~live

let cache_versions c = List.sort_uniq compare (Vcache.versions c.tries @ Vcache.versions c.dense)

let create ?(config = Config.default) () =
  {
    cat = Catalog.create ();
    cfg = config;
    cache = new_cache ();
    plans = Hashtbl.create 16;
    plan_tick = 0;
    epoch = 0;
    last_prof = None;
    prof_sink = None;
    prof = None;
  }

let last_profile t = t.last_prof
let set_profile_sink t sink = t.prof_sink <- sink

let config t = t.cfg
let catalog t = t.cat

let reset_plan_cache t = Hashtbl.reset t.plans

(* Only the knobs that shape the plan itself (hypergraph, GHD, attribute
   order) invalidate cached plans. Execution-time knobs (domains, budget,
   sorted_emit, capacity) don't; blas_targeting doesn't either because the
   BLAS-vs-WCOJ dispatch is re-checked at bind time against the live
   config. *)
let plan_relevant (c : Config.t) =
  ( c.Config.attribute_elimination,
    c.Config.attr_order,
    c.Config.relax_materialized_first,
    c.Config.ghd_heuristics )

let set_config t cfg =
  let changed = plan_relevant cfg <> plan_relevant t.cfg in
  t.cfg <- cfg;
  if changed then begin
    Hashtbl.reset t.plans;
    t.epoch <- t.epoch + 1
  end

(* Every entry point that mutates the catalog must go through this:
   serving a cached plan for a replaced table would silently return stale
   rows (plans capture table values in their bindings). Tries and dense
   views need no invalidation: they are keyed by table version, and a
   replaced table has a new one. *)
let invalidate_plans t =
  Hashtbl.reset t.plans;
  t.epoch <- t.epoch + 1

(* Point [name] at [table] (or at nothing). The replaced version can no
   longer be asked for through this engine, so its entries leave the
   cache. On a shared cache that can at worst cost another engine a
   rebuild; Lh_serve's views never register, and it prunes the shared
   cache itself. *)
let set_entry t name table =
  (match Catalog.find t.cat name with
  | Some old when Option.map (fun (n : T.t) -> n.T.id) table <> Some old.T.id ->
      retain_cache t.cache ~live:(fun v -> v <> old.T.id)
  | _ -> ());
  match table with Some tbl -> Catalog.register t.cat tbl | None -> Catalog.remove t.cat name

let register t (table : T.t) =
  invalidate_plans t;
  set_entry t table.T.name (Some table)

let dict t = Catalog.dict t.cat

(* Ingest entry points wrap like the query entry points do, so an aborted
   load (bad row, injected fault) surfaces as a typed [Error] with the
   catalog unchanged: the table is only registered after a fully
   successful build. *)
let register_rows t ~name ~schema rows =
  wrap (fun () ->
      let table = T.of_rows ~name ~schema ~dict:(dict t) rows in
      register t table;
      table)

let load_csv t ~name ~schema ?sep path =
  wrap (fun () ->
      let table =
        T.load_csv ~name ~schema ~dict:(dict t) ~domains:(max 1 t.cfg.Config.domains) ?sep path
      in
      register t table;
      table)

type undo = { u_name : string; u_table : T.t option; u_epoch : int }

let undo_point t ~name = { u_name = name; u_table = Catalog.find t.cat name; u_epoch = t.epoch }

(* The catalog is back to exactly the state [u.u_epoch] named, so that
   epoch number is valid again; no plan made in between survives. *)
let undo t u =
  Hashtbl.reset t.plans;
  set_entry t u.u_name u.u_table;
  t.epoch <- u.u_epoch

(* Durable-checkpoint writer and loader (see Lh_durable.Store): the dump
   decodes every relation back to rows in deterministic (sorted-name)
   order; restore is a batch of ordinary registrations, so replaying a
   recovered checkpoint + WAL suffix re-encodes strings against this
   engine's dictionary exactly like the original ingests did. *)
let dump t =
  List.map (fun tbl -> (tbl.T.name, tbl.T.schema, T.to_rows tbl)) (Catalog.tables t.cat)

let restore t batches =
  List.iter
    (fun (name, schema, rows) -> ignore (register_rows t ~name ~schema rows))
    batches

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type snapshot = { snap_epoch : int; snap_cat : Catalog.t; snap_cfg : Config.t }

let epoch t = t.epoch

(* A catalog holding [cat]'s tables, repointed at a frozen handle on its
   dictionary: O(tables), no string is copied. *)
let freeze_catalog cat =
  let dict = Lh_storage.Dict.freeze (Catalog.dict cat) in
  let frozen = Catalog.of_dict dict in
  List.iter (fun tbl -> Catalog.register frozen (T.with_dict tbl ~dict)) (Catalog.tables cat);
  frozen

(* Freeze the current catalog. Table columns are immutable after
   construction and the dictionary is append-only, so the snapshot shares
   both; it only records the dictionary's current length. Must be called
   with no ingest in flight (the serving layer serializes writers). *)
let snapshot t = { snap_epoch = t.epoch; snap_cat = freeze_catalog t.cat; snap_cfg = t.cfg }

let snapshot_epoch s = s.snap_epoch
let snapshot_versions s = List.map (fun (tbl : T.t) -> tbl.T.id) (Catalog.tables s.snap_cat)

(* An engine over a snapshot: a private catalog (so a [query_into] on one
   view cannot race another) with its own frozen dictionary handle, so an
   ingest into it forks a private pool without touching the snapshot's.
   The budget is cloned — its per-run cells are mutable and views execute
   concurrently. The epoch is pinned to the snapshot's, so prepared
   statements created on a view never spuriously revalidate. *)
let of_snapshot ?config ?cache snap =
  let cfg = Option.value config ~default:snap.snap_cfg in
  let cfg = { cfg with Config.budget = Lh_util.Budget.clone cfg.Config.budget } in
  {
    cat = freeze_catalog snap.snap_cat;
    cfg;
    cache = Option.value cache ~default:(new_cache ());
    plans = Hashtbl.create 16;
    plan_tick = 0;
    epoch = snap.snap_epoch;
    last_prof = None;
    prof_sink = None;
    prof = None;
  }

let dense_info t (table : T.t) =
  let i, hit =
    Vcache.find_or_build t.cache.dense ~version:table.T.id "" (fun () ->
        Blas_bridge.dense_rect table)
  in
  Obs.incr (if hit then c_dense_hit else c_dense_miss);
  i

(* ------------------------------------------------------------------ *)
(* Per-query profiles                                                   *)

let note_cache t tag = match t.prof with Some a -> a.a_cache <- tag | None -> ()
let note_sql t sql = match t.prof with Some a -> a.a_sql <- sql | None -> ()

let outcome_of_exn exn =
  match exn with
  | Lh_util.Budget.Timed_out | Lh_util.Budget.Out_of_memory_budget -> Profile.Budget_overrun
  | Lh_fault.Fault.Injected site | Error (Error.Fault_injected site) ->
      Profile.Injected_fault site
  | Error Error.Budget_exceeded -> Profile.Budget_overrun
  | Error e -> Profile.Typed_error (Error.to_string e)
  | exn -> (
      match classify exn with
      | Some (Error.Fault_injected site) -> Profile.Injected_fault site
      | Some e -> Profile.Typed_error (Error.to_string e)
      | None -> Profile.Typed_error (Printexc.to_string exn))

let phase_sums () =
  List.map (fun (n, h) -> (n, (Hist.snapshot h).Hist.ssum_ns)) profile_phases

(* Wraps one query execution: when telemetry is enabled, assembles a
   {!Profile.t} for every outcome (success, typed error, injected fault,
   budget overrun), records the end-to-end latency histogram, and hands
   the record to the slow-query sink when the query met the threshold.
   When disabled the cost is the single [Obs.is_enabled] load. *)
let profiled t ~sql f =
  if not (Obs.is_enabled ()) then f ()
  else begin
    let acc =
      {
        a_sql = sql;
        a_plan = "none";
        a_path = "none";
        a_cache = "none";
        a_rows_in = 0;
        a_rows_out = 0;
      }
    in
    t.prof <- Some acc;
    let cbefore = Obs.snapshot () in
    let pbefore = phase_sums () in
    let gc0 = (Gc.quick_stat ()).Gc.major_words in
    let t0 = Lh_util.Timing.monotonic_now () in
    let finish outcome =
      let total = Lh_util.Timing.monotonic_now () -. t0 in
      Hist.observe_always h_query total;
      let phases =
        List.filter_map
          (fun ((n, after), (_, before)) ->
            let d = after - before in
            if d > 0 then Some (n, float_of_int d *. 1e-9) else None)
          (List.combine (phase_sums ()) pbefore)
      in
      let counters =
        List.filter
          (fun (n, v) -> v <> 0 && not (Obs.is_gauge n))
          (Obs.diff ~before:cbefore ~after:(Obs.snapshot ()))
      in
      let p =
        {
          Profile.p_sql = acc.a_sql;
          p_plan = acc.a_plan;
          p_path = acc.a_path;
          p_cache = acc.a_cache;
          p_epoch = t.epoch;
          p_rows_in = acc.a_rows_in;
          p_rows_out = acc.a_rows_out;
          p_domains = max 1 t.cfg.Config.domains;
          p_total_s = total;
          p_phases = phases;
          p_counters = counters;
          p_gc_major_words = (Gc.quick_stat ()).Gc.major_words -. gc0;
          p_outcome = outcome;
        }
      in
      t.prof <- None;
      t.last_prof <- Some p;
      Obs.incr c_profile_records;
      match t.prof_sink with
      | Some sink when total *. 1000.0 >= t.cfg.Config.slow_log_ms ->
          Obs.incr c_slowlog_lines;
          sink p
      | _ -> ()
    in
    match f () with
    | v ->
        finish Profile.Ok_result;
        v
    | exception exn ->
        finish (outcome_of_exn exn);
        raise exn
  end

(* ------------------------------------------------------------------ *)
(* Result assembly                                                      *)

let finalize_rows (lq : Logical.t) (rows : Executor.row list) ~dict ~name =
  let n = List.length rows in
  let rows_arr = Array.of_list rows in
  let columns =
    List.map
      (fun (o : Logical.out_col) ->
        match o.Logical.okind with
        | Logical.Out_group i ->
            T.Icol (Array.init n (fun r -> rows_arr.(r).Executor.gcodes.(i)))
        | Logical.Out_sum slots ->
            (* All listed slots share one semiring (Logical guarantees it);
               the decomposed per-slot folds are ⊕-combined here. *)
            let sr = lq.Logical.slots.(List.hd slots).Logical.sr in
            let value r =
              List.fold_left
                (fun acc j -> sr.Semiring.add acc rows_arr.(r).Executor.slots.(j))
                sr.Semiring.zero slots
            in
            if o.Logical.odtype = Dtype.Int then
              T.Icol (Array.init n (fun r -> int_of_float (Float.round (value r))))
            else T.Fcol (Array.init n value)
        | Logical.Out_avg (slots, cnt) ->
            T.Fcol
              (Array.init n (fun r ->
                   let c = rows_arr.(r).Executor.slots.(cnt) in
                   if c = 0.0 then 0.0
                   else
                     List.fold_left (fun acc j -> acc +. rows_arr.(r).Executor.slots.(j)) 0.0 slots
                     /. c))
        | Logical.Out_fold j ->
            let value r = rows_arr.(r).Executor.slots.(j) in
            if o.Logical.odtype = Dtype.Int then
              T.Icol (Array.init n (fun r -> int_of_float (Float.round (value r))))
            else T.Fcol (Array.init n value))
      lq.Logical.outputs
  in
  let schema =
    Schema.create
      (List.map
         (fun (o : Logical.out_col) ->
           let kind =
             match o.Logical.okind with
             | Logical.Out_group i -> (
                 match lq.Logical.group_by.(i) with
                 | Logical.Group_key _ -> Schema.Key
                 | Logical.Group_ann _ -> Schema.Annotation)
             | Logical.Out_sum _ | Logical.Out_avg _ | Logical.Out_fold _ -> Schema.Annotation
           in
           (o.Logical.oname, o.Logical.odtype, kind))
         lq.Logical.outputs)
  in
  T.create ~name ~schema ~dict (Array.of_list columns)

(* ------------------------------------------------------------------ *)

type decided =
  | Use_scan
  | Use_blas
  | Use_wcoj of Ghd.t * Executor.pnode

let blas_eligible t lq ~span_name =
  t.cfg.Config.blas_targeting && t.cfg.Config.attribute_elimination
  && Option.is_some
       (Obs.span span_name (fun () -> Blas_bridge.match_kernel lq ~dense_of:(dense_info t)))

let decide t (lq : Logical.t) =
  if Array.length lq.Logical.vertices = 0 then Use_scan
  else if blas_eligible t lq ~span_name:"plan.blas_match" then Use_blas
  else begin
    let ghd =
      Obs.span "plan.ghd" (fun () -> Ghd.plan lq ~heuristics:t.cfg.Config.ghd_heuristics)
    in
    let dense_of (e : Logical.edge) = Option.is_some (dense_info t e.Logical.table) in
    let pnode =
      Obs.span "plan.attr_order" (fun () -> Executor.physical t.cfg lq ~dense_of ghd)
    in
    Use_wcoj (ghd, pnode)
  end

let explain_of t lq decided =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "%a@." Logical.pp lq;
  let path, fhw =
    match decided with
    | Use_scan ->
        Format.fprintf fmt "path: columnar scan (no join keys)@.";
        (Scan_path, None)
    | Use_blas ->
        Format.fprintf fmt "path: dense BLAS kernel (attribute-eliminated buffers)@.";
        (Blas_path, None)
    | Use_wcoj (ghd, pnode) ->
        Format.fprintf fmt "%a@.%a@." (Ghd.pp lq) ghd (Executor.pp_plan lq) pnode;
        (Wcoj_path, Some ghd.Ghd.fhw)
  in
  Format.pp_print_flush fmt ();
  ignore t;
  { epath = path; efhw = fhw; etext = Buffer.contents buf }

let wcoj_summary (lq : Logical.t) (ghd : Ghd.t) (pnode : Executor.pnode) =
  let names =
    List.map (fun i -> lq.Logical.vertices.(i).Logical.vname) pnode.Executor.porder
  in
  (* The leaf kernel disposition is resolved (and cached on the pnode) at
     execution time; before the first execution there is nothing to show. *)
  let kernel =
    match pnode.Executor.pkernel with
    | Some k -> Printf.sprintf " leaf=%s" (Compile.Leaf.mode_to_string k.Executor.k_mode)
    | None -> ""
  in
  (* Chosen semiring per live aggregate slot. *)
  let aggs =
    match
      Array.to_list lq.Logical.slots
      |> List.filter_map (fun (s : Logical.slot) ->
             if s.Logical.dead then None else Some s.Logical.sr.Semiring.name)
    with
    | [] -> ""
    | l -> " agg=" ^ String.concat "," l
  in
  Printf.sprintf "wcoj fhw=%.2f order=%s%s%s" ghd.Ghd.fhw (String.concat "," names) kernel aggs

let note_decided t (lq : Logical.t) decided =
  match t.prof with
  | None -> ()
  | Some a ->
      a.a_rows_in <-
        List.fold_left (fun acc (_, tb) -> acc + tb.T.nrows) 0 lq.Logical.bindings;
      (match decided with
      | Use_scan ->
          a.a_path <- "scan";
          a.a_plan <- "columnar scan"
      | Use_blas ->
          a.a_path <- "blas";
          a.a_plan <-
            (match Blas_bridge.match_kernel lq ~dense_of:(dense_info t) with
            | Some k -> Blas_bridge.describe k
            | None -> "blas")
      | Use_wcoj (ghd, pnode) ->
          a.a_path <- "wcoj";
          a.a_plan <- wcoj_summary lq ghd pnode)

let run_decided t lq decided ~name =
  note_decided t lq decided;
  let rows =
    match decided with
    | Use_scan ->
        Obs.span "execute.scan" ~record:(Hist.observe_always h_scan) (fun () ->
            Executor.run_scan t.cfg lq)
    | Use_blas ->
        Obs.span "execute.blas" ~record:(Hist.observe_always h_blas) (fun () ->
            match
              Blas_bridge.try_blas ~domains:(max 1 t.cfg.Config.domains)
                ~budget:t.cfg.Config.budget lq ~dense_of:(dense_info t)
            with
            | Some rows -> rows
            | None -> failwith "Engine: BLAS path vanished between planning and execution")
    | Use_wcoj (_, pnode) ->
        Obs.span "execute.wcoj" ~record:(Hist.observe_always h_wcoj) (fun () ->
            Executor.run t.cfg ~cache:t.cache.tries lq pnode)
  in
  (* Refresh the profile's plan line now that execution resolved the leaf
     kernel disposition onto the pnode. *)
  (match (t.prof, decided) with
  | Some a, Use_wcoj (ghd, pnode) -> a.a_plan <- wcoj_summary lq ghd pnode
  | _ -> ());
  Obs.span "finalize" ~record:(Hist.observe_always h_finalize) (fun () ->
      let result = finalize_rows lq rows ~dict:(Catalog.dict t.cat) ~name in
      Obs.add c_rows_emitted result.T.nrows;
      (match t.prof with Some a -> a.a_rows_out <- result.T.nrows | None -> ());
      result)

(* One shared pipeline so every entry point produces the same span tree:
   query (root) > parse > [normalize] > translate > plan > [bind] >
   execute.* > finalize. *)
let translate_spanned t ast =
  Obs.span "translate" (fun () ->
      Logical.translate t.cat ~attribute_elimination:t.cfg.Config.attribute_elimination ast)

(* Direct (uncached, unprepared) pipeline; used when the plan cache is
   disabled and by [explain]. *)
let run_pipeline t lq ~want_explain ~name =
  let d = Obs.span "plan" ~record:(Hist.observe_always h_plan) (fun () -> decide t lq) in
  let ex =
    if want_explain then Some (Obs.span "explain" (fun () -> explain_of t lq d)) else None
  in
  Lh_util.Budget.start t.cfg.Config.budget;
  (run_decided t lq d ~name, ex)

(* ------------------------------------------------------------------ *)
(* Prepared plans                                                       *)

(* GHD and attribute order are computed on the unbound (parameterized)
   plan: [Logical.bind_params] cannot change the hypergraph shape, so both
   stay valid for every binding. The BLAS decision does depend on bound
   filter values, so it is re-checked (cheaply) at bind time instead. *)
let plan_structures t (lq : Logical.t) =
  if Array.length lq.Logical.vertices = 0 then (None, None)
  else begin
    let ghd =
      Obs.span "plan.ghd" (fun () -> Ghd.plan lq ~heuristics:t.cfg.Config.ghd_heuristics)
    in
    let dense_of (e : Logical.edge) = Option.is_some (dense_info t e.Logical.table) in
    let pnode =
      Obs.span "plan.attr_order" (fun () -> Executor.physical t.cfg lq ~dense_of ghd)
    in
    (Some ghd, Some pnode)
  end

let make_plan t ast =
  Lh_fault.Fault.hit fault_prepare;
  let nparams =
    let ps = Ast.query_params ast in
    let n = List.length ps in
    if ps <> List.init n (fun i -> i + 1) then
      semantic "parameters must be numbered contiguously from $1 (got %s)"
        (String.concat ", " (List.map (Printf.sprintf "$%d") ps));
    n
  in
  let lq = translate_spanned t ast in
  let ghd, pnode =
    Obs.span "plan" ~record:(Hist.observe_always h_plan) (fun () -> plan_structures t lq)
  in
  { p_ast = ast; p_nparams = nparams; p_lq = lq; p_ghd = ghd; p_pnode = pnode; p_epoch = t.epoch }

(* The catalog (or a plan-shaping config knob) changed under this plan:
   transparently re-translate and re-plan against the current state. *)
let revalidate t plan =
  if plan.p_epoch <> t.epoch then begin
    let lq = translate_spanned t plan.p_ast in
    let ghd, pnode =
      Obs.span "plan" ~record:(Hist.observe_always h_plan) (fun () -> plan_structures t lq)
    in
    plan.p_lq <- lq;
    plan.p_ghd <- ghd;
    plan.p_pnode <- pnode;
    plan.p_epoch <- t.epoch
  end

let exec_plan t plan params ~want_explain ~name =
  let ngiven = List.length params in
  if ngiven <> plan.p_nparams then
    semantic "statement expects %d parameter%s, got %d" plan.p_nparams
      (if plan.p_nparams = 1 then "" else "s")
      ngiven;
  Lh_fault.Fault.hit fault_bind;
  revalidate t plan;
  let values = Array.of_list params in
  let lookup i =
    if i >= 1 && i <= Array.length values then Normalize.literal_of_value values.(i - 1)
    else semantic "no value bound for parameter $%d" i
  in
  let lq =
    Obs.span "bind" ~record:(Hist.observe_always h_bind) (fun () ->
        Logical.bind_params plan.p_lq lookup)
  in
  let d =
    if Array.length lq.Logical.vertices = 0 then Use_scan
    else if blas_eligible t lq ~span_name:"bind.blas_match" then Use_blas
    else Use_wcoj (Option.get plan.p_ghd, Option.get plan.p_pnode)
  in
  let ex =
    if want_explain then Some (Obs.span "explain" (fun () -> explain_of t lq d)) else None
  in
  Lh_util.Budget.start t.cfg.Config.budget;
  (run_decided t lq d ~name, ex)

(* ------------------------------------------------------------------ *)
(* Plan cache                                                           *)

let evict_if_full t =
  if Hashtbl.length t.plans >= max 1 t.cfg.Config.plan_cache_capacity then begin
    (* Capacity is small: a linear scan for the LRU entry is fine. *)
    let victim = ref None in
    Hashtbl.iter
      (fun key e ->
        match !victim with
        | Some (_, used) when used <= e.c_used -> ()
        | _ -> victim := Some (key, e.c_used))
      t.plans;
    match !victim with
    | Some (key, _) ->
        Hashtbl.remove t.plans key;
        Obs.incr c_plan_evict
    | None -> ()
  end

let cached_plan t ast =
  let norm, values = Obs.span "normalize" (fun () -> Normalize.lift_literals ast) in
  let key = Format.asprintf "%a" Ast.pp_query norm in
  note_sql t key;
  t.plan_tick <- t.plan_tick + 1;
  let plan =
    match Hashtbl.find_opt t.plans key with
    | Some e ->
        Obs.incr c_plan_hit;
        note_cache t "hit";
        e.c_used <- t.plan_tick;
        e.c_plan
    | None ->
        Obs.incr c_plan_miss;
        note_cache t "miss";
        evict_if_full t;
        let plan = make_plan t norm in
        (* Between building the plan and publishing it: a fault here (or
           any exception out of [make_plan] above) must leave the cache
           without a partial entry — the entry is only installed on
           success. *)
        Lh_fault.Fault.hit fault_plan_fill;
        Hashtbl.replace t.plans key { c_plan = plan; c_used = t.plan_tick };
        plan
  in
  (plan, values)

let run_query_ast t ast ~want_explain ~name =
  Lh_fault.Fault.hit fault_query;
  if Ast.max_param ast > 0 then
    semantic "query contains parameters; use Engine.prepare / Stmt.exec to bind them";
  if t.cfg.Config.plan_cache_capacity = 0 then begin
    note_cache t "bypass";
    let lq = translate_spanned t ast in
    run_pipeline t lq ~want_explain ~name
  end
  else begin
    let plan, values = cached_plan t ast in
    exec_plan t plan values ~want_explain ~name
  end

(* ------------------------------------------------------------------ *)
(* Public query entry points                                            *)

let query_ast t ast =
  wrap (fun () ->
      let sql = if Obs.is_enabled () then Format.asprintf "%a" Ast.pp_query ast else "" in
      profiled t ~sql (fun () ->
          Obs.span "query" (fun () ->
              fst (run_query_ast t ast ~want_explain:false ~name:"result"))))

let run_sql t sql ~want_explain ~name =
  profiled t ~sql (fun () ->
      Obs.span "query" (fun () ->
          let ast =
            Obs.span "parse" ~record:(Hist.observe_always h_parse) (fun () ->
                Lh_sql.Parser.parse sql)
          in
          run_query_ast t ast ~want_explain ~name))

(* The result-typed entry points are canonical: every execution funnels
   through [caught], which classifies failures exactly once. The raising
   forms ([query], [Stmt.exec], …) are thin wrappers that re-raise —
   budget exceptions pass through them raw (callers distinguish OOM from
   timeout; [test/test_fuzz.ml] holds the engine to that contract), while
   the result forms map both to [Budget_exceeded]. *)
type caught_err = Typed of Error.t | Budget of exn

let caught f =
  match wrap f with
  | v -> Ok v
  | exception Error e -> Stdlib.Error (Typed e)
  | exception ((Lh_util.Budget.Out_of_memory_budget | Lh_util.Budget.Timed_out) as exn) ->
      Stdlib.Error (Budget exn)

let unwrap = function
  | Ok v -> v
  | Stdlib.Error (Typed e) -> raise (Error e)
  | Stdlib.Error (Budget exn) -> raise exn

let to_result = function
  | Ok v -> Ok v
  | Stdlib.Error (Typed e) -> Stdlib.Error e
  | Stdlib.Error (Budget _) -> Stdlib.Error Error.Budget_exceeded

let query_caught t sql = caught (fun () -> fst (run_sql t sql ~want_explain:false ~name:"result"))
let query_result t sql = to_result (query_caught t sql)
let query t sql = unwrap (query_caught t sql)

let semirings () = Semiring.names ()

let query_into t ~name sql =
  let result = wrap (fun () -> fst (run_sql t sql ~want_explain:false ~name)) in
  register t result;
  result

let query_explain t sql =
  wrap (fun () ->
      let result, ex = run_sql t sql ~want_explain:true ~name:"result" in
      (result, Option.get ex))

let query_analyze t sql =
  wrap (fun () ->
      let (result, ex), report =
        Lh_obs.Report.with_session (fun () -> run_sql t sql ~want_explain:true ~name:"result")
      in
      (result, Option.get ex, report))

let explain t sql =
  wrap (fun () ->
      let ast = Lh_sql.Parser.parse sql in
      let lq = Logical.translate t.cat ~attribute_elimination:t.cfg.Config.attribute_elimination ast in
      explain_of t lq (decide t lq))

(* ------------------------------------------------------------------ *)
(* Prepared statements                                                  *)

let prepare_ast t ast =
  wrap (fun () ->
      Obs.span "prepare" (fun () -> { s_eng = t; s_sql = ""; s_plan = make_plan t ast }))

let prepare t sql =
  wrap (fun () ->
      Obs.span "prepare" (fun () ->
          let ast =
            Obs.span "parse" ~record:(Hist.observe_always h_parse) (fun () ->
                Lh_sql.Parser.parse sql)
          in
          { s_eng = t; s_sql = sql; s_plan = make_plan t ast }))

let prepare_result t sql = to_result (caught (fun () -> prepare t sql))

module Stmt = struct
  let sql s = s.s_sql
  let nparams s = s.s_plan.p_nparams

  let exec_caught ~name s params =
    caught (fun () ->
        profiled s.s_eng ~sql:s.s_sql (fun () ->
            Obs.span "query" (fun () ->
                note_cache s.s_eng "prepared";
                fst (exec_plan s.s_eng s.s_plan params ~want_explain:false ~name))))

  let exec ?(name = "result") s params = unwrap (exec_caught ~name s params)
  let exec_result ?(name = "result") s params = to_result (exec_caught ~name s params)

  let exec_analyze ?(name = "result") s params =
    wrap (fun () ->
        let result, report =
          Lh_obs.Report.with_session (fun () ->
              profiled s.s_eng ~sql:s.s_sql (fun () ->
                  Obs.span "query" (fun () ->
                      note_cache s.s_eng "prepared";
                      fst (exec_plan s.s_eng s.s_plan params ~want_explain:false ~name))))
        in
        (result, report))
end

(* ------------------------------------------------------------------ *)
(* Iterative queries (graph workloads over the SpMV loop)               *)

type merge = Replace | Accumulate of string

(* Key columns of a result table are its [Schema.Key] columns (int codes);
   everything else is a value column, read as floats for merging. *)
let split_cols (tbl : T.t) =
  let n = Schema.ncols tbl.T.schema in
  let keys = ref [] and vals = ref [] in
  for i = n - 1 downto 0 do
    if (Schema.col tbl.T.schema i).Schema.kind = Schema.Key then keys := i :: !keys
    else vals := i :: !vals
  done;
  (!keys, !vals)

let key_reader (tbl : T.t) i =
  match tbl.T.cols.(i) with
  | T.Icol a -> fun r -> a.(r)
  | T.Fcol _ ->
      semantic "iterate: float-typed key column %S" (Schema.col tbl.T.schema i).Schema.name

let float_reader (tbl : T.t) i =
  match tbl.T.cols.(i) with
  | T.Icol a -> fun r -> float_of_int a.(r)
  | T.Fcol a -> fun r -> a.(r)

let table_map (tbl : T.t) kidx vidx =
  let h = Hashtbl.create (max 16 (2 * tbl.T.nrows)) in
  let krs = List.map (key_reader tbl) kidx in
  let vrs = List.map (float_reader tbl) vidx in
  for r = 0 to tbl.T.nrows - 1 do
    let k = List.map (fun f -> f r) krs in
    let v = Array.of_list (List.map (fun f -> f r) vrs) in
    Hashtbl.replace h k v
  done;
  h

let map_table ~name ~schema ~dict kidx vidx m =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) m [] |> List.sort compare in
  let n = List.length keys in
  let ka = Array.of_list keys in
  let cols = Array.make (Schema.ncols schema) (T.Icol [||]) in
  List.iteri
    (fun pos i -> cols.(i) <- T.Icol (Array.init n (fun r -> List.nth ka.(r) pos)))
    kidx;
  List.iteri
    (fun pos i ->
      let get r = (Hashtbl.find m ka.(r)).(pos) in
      cols.(i) <-
        (if (Schema.col schema i).Schema.dtype = Dtype.Float then T.Fcol (Array.init n get)
         else T.Icol (Array.init n (fun r -> int_of_float (Float.round (get r))))))
    vidx;
  T.create ~name ~schema ~dict cols

(* Merge one round's rows into the carried state, tracking the largest
   per-cell movement (infinite when the key sets differ) so the caller can
   test convergence against [tolerance]. *)
let merge_round ~how ~dict ~name (old_t : T.t) (new_t : T.t) =
  if Schema.ncols new_t.T.schema <> Schema.ncols old_t.T.schema then
    semantic "iterate: step result shape differs from the carried state (%d vs %d columns)"
      (Schema.ncols new_t.T.schema) (Schema.ncols old_t.T.schema);
  let kidx, vidx = split_cols old_t in
  let old_m = table_map old_t kidx vidx in
  let new_m = table_map new_t kidx vidx in
  let delta = ref 0.0 in
  let bump d = if d > !delta then delta := d in
  let out =
    match how with
    | `Replace ->
        Hashtbl.iter
          (fun k (v : float array) ->
            match Hashtbl.find_opt old_m k with
            | Some ov -> Array.iteri (fun j x -> bump (Float.abs (x -. ov.(j)))) v
            | None -> bump Float.infinity)
          new_m;
        Hashtbl.iter (fun k _ -> if not (Hashtbl.mem new_m k) then bump Float.infinity) old_m;
        new_m
    | `Acc (sr : Semiring.t) ->
        Hashtbl.iter
          (fun k (v : float array) ->
            match Hashtbl.find_opt old_m k with
            | Some ov ->
                let merged = Array.mapi (fun j x -> sr.Semiring.add ov.(j) x) v in
                Array.iteri (fun j x -> bump (Float.abs (x -. ov.(j)))) merged;
                Hashtbl.replace old_m k merged
            | None ->
                bump Float.infinity;
                Hashtbl.replace old_m k v)
          new_m;
        old_m
  in
  (map_table ~name ~schema:old_t.T.schema ~dict kidx vidx out, !delta)

let iterate ?(max_rounds = 100) ?(tolerance = 0.0) ?(merge = Replace) t ~name ~init ~step =
  wrap (fun () ->
      if max_rounds < 1 then semantic "iterate: max_rounds must be positive";
      let how =
        match merge with
        | Replace -> `Replace
        | Accumulate srname -> (
            match Semiring.find srname with
            | Some sr -> `Acc sr
            | None ->
                semantic "iterate: unknown semiring %S (registered: %s)" srname
                  (String.concat ", " (Semiring.names ())))
      in
      let cur = ref (query_into t ~name init) in
      let stmt = prepare t step in
      let rounds = ref 0 in
      let converged = ref false in
      while (not !converged) && !rounds < max_rounds do
        incr rounds;
        let next = Stmt.exec ~name stmt [] in
        let merged, delta = merge_round ~how ~dict:(Catalog.dict t.cat) ~name !cur next in
        register t merged;
        cur := merged;
        if delta <= tolerance then converged := true
      done;
      (!cur, !rounds))
