(* Figure 5: the cost-estimation experiments.

   (a) intersection micro-benchmark across layouts — the source of the
       icost constants (run under Bechamel's OLS estimator);
   (b) SMM with the relaxed [i,k,j] order vs the naive [i,j,k] order:
       estimated cost, runtime, and peak heap;
   (c) four attribute orders for the expensive TPC-H Q5 node: estimated
       cost vs runtime. *)

module L = Levelheaded
module C = Common
module Set_ = Lh_set.Set
open Bechamel

(* ---------------- (a) ---------------- *)

let make_sets ~card ~dense seed =
  let rng = Lh_util.Prng.create seed in
  if dense then
    (* ~ half the positions of a 2*card range: bitset layout *)
    Set_.of_sorted_array ~layout:Set_.Dense
      (Array.init card (fun i -> (2 * i) + Lh_util.Prng.int rng 2))
  else
    (* spread over a 64x range: uint layout *)
    Set_.of_sorted_array ~layout:Set_.Sparse
      (Array.init card (fun i -> (64 * i) + Lh_util.Prng.int rng 32))

let fig5a_tests card =
  let uu1 = make_sets ~card ~dense:false 1 and uu2 = make_sets ~card ~dense:false 2 in
  let bb1 = make_sets ~card ~dense:true 3 and bb2 = make_sets ~card ~dense:true 4 in
  let bu = make_sets ~card ~dense:false 5 in
  [
    ( Printf.sprintf "uint∩uint/%d" card,
      Test.make ~name:(Printf.sprintf "uu-%d" card)
        (Staged.stage (fun () -> Lh_set.Intersect.inter uu1 uu2)) );
    ( Printf.sprintf "bs∩uint/%d" card,
      Test.make ~name:(Printf.sprintf "bu-%d" card)
        (Staged.stage (fun () -> Lh_set.Intersect.inter bb1 bu)) );
    ( Printf.sprintf "bs∩bs/%d" card,
      Test.make ~name:(Printf.sprintf "bb-%d" card)
        (Staged.stage (fun () -> Lh_set.Intersect.inter bb1 bb2)) );
  ]

let run_fig5a _params =
  let cards = [ 100_000; 1_000_000 ] in
  let tests = List.concat_map fig5a_tests cards in
  let grouped = Test.make_grouped ~name:"intersect" (List.map snd tests) in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  C.print_header "Figure 5a — set intersection kernels (Bechamel)" [ "ns/op"; "vs bs∩bs" ];
  let value name =
    Hashtbl.fold
      (fun k v acc -> if Filename.basename k = name || k = name then Some v else acc)
      results None
    |> Option.map (fun o -> match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> nan)
  in
  List.iter
    (fun card ->
      let get kind = Option.value (value (Printf.sprintf "%s-%d" kind card)) ~default:nan in
      let bb = get "bb" and bu = get "bu" and uu = get "uu" in
      C.print_row (Printf.sprintf "bs∩bs   card=%d" card) [ Printf.sprintf "%.0f" bb; "1.0x" ];
      C.print_row (Printf.sprintf "bs∩uint card=%d" card)
        [ Printf.sprintf "%.0f" bu; Printf.sprintf "%.1fx" (bu /. bb) ];
      C.print_row (Printf.sprintf "uu∩uint card=%d" card)
        [ Printf.sprintf "%.0f" uu; Printf.sprintf "%.1fx" (uu /. bb) ])
    cards;
  Printf.printf "(icost model assigns bs∩bs=1, bs∩uint=10, uint∩uint=50)\n"

(* ---------------- (b) ---------------- *)

(* Allocation pressure of one run, in MB (top_heap_words is monotone over
   the process lifetime, so a per-run peak is not observable; total
   allocation is the faithful proxy for the paper's memory column). *)
let alloc_mb f =
  let before = Gc.allocated_bytes () in
  let x = f () in
  ignore (Sys.opaque_identity x);
  (Gc.allocated_bytes () -. before) /. 1048576.0

let run_fig5b params =
  let eng = L.Engine.create () in
  let dict = L.Engine.dict eng in
  let nlp = Lh_datagen.Matrices.nlpkkt_like ~dict ~scale:(0.0005 *. params.C.la_scale) () in
  L.Engine.register eng nlp.Lh_datagen.Matrices.table;
  let sql = Queries.smm ~matrix:"nlpkkt" in
  let budget =
    Lh_util.Budget.create ~max_live_words:params.C.mem_words ~max_seconds:params.C.timeout ()
  in
  let order_cost cfg =
    let saved = L.Engine.config eng in
    L.Engine.set_config eng cfg;
    let lq =
      L.Logical.translate (L.Engine.catalog eng) ~attribute_elimination:true
        (Lh_sql.Parser.parse sql)
    in
    let ghd = L.Ghd.plan lq ~heuristics:true in
    let pnode = L.Executor.physical cfg lq ~dense_of:(fun _ -> false) ghd in
    L.Engine.set_config eng saved;
    (pnode.L.Executor.porder, pnode.L.Executor.prelaxed, pnode.L.Executor.pcost)
  in
  let run_cfg label cfg =
    let saved = L.Engine.config eng in
    L.Engine.set_config eng { cfg with L.Config.budget };
    Fun.protect
      ~finally:(fun () -> L.Engine.set_config eng saved)
      (fun () ->
        let t =
          C.measured ~runs:params.C.runs ~system:label ~sql (fun () -> L.Engine.query eng sql)
        in
        let alloc =
          match t with
          | C.Time _ -> alloc_mb (fun () -> L.Engine.query eng sql)
          | _ -> 0.0
        in
        (t, alloc))
  in
  let relaxed_cfg = L.Config.default in
  let naive_cfg =
    { L.Config.default with attr_order = L.Config.Naive; relax_materialized_first = false }
  in
  C.print_header "Figure 5b — SMM attribute orders (nlpkkt-like)"
    [ "cost"; "runtime"; "alloc-MB" ];
  List.iter
    (fun (label, cfg) ->
      let order, relaxed, cost = order_cost cfg in
      let t, alloc = run_cfg label cfg in
      C.print_row
        (Printf.sprintf "%s %s%s" label
           (String.concat "," (List.map string_of_int order))
           (if relaxed then " (relaxed)" else ""))
        [ Printf.sprintf "%.0f" cost; C.outcome_to_string t; Printf.sprintf "%.1f" alloc ])
    [ ("[i,k,j]", relaxed_cfg); ("[i,j,k]", naive_cfg) ]

(* ---------------- (c) ---------------- *)

let run_fig5c params =
  let sf = List.fold_left Float.max 0.01 params.C.sfs in
  let eng = L.Engine.create () in
  let dict = L.Engine.dict eng in
  let tables = Lh_datagen.Tpch.generate ~dict ~sf ~seed:params.C.seed () in
  List.iter (L.Engine.register eng) tables;
  let cfg = L.Config.default in
  let lq =
    L.Logical.translate (L.Engine.catalog eng) ~attribute_elimination:true
      (Lh_sql.Parser.parse Queries.q5)
  in
  let ghd = L.Ghd.plan lq ~heuristics:true in
  let pnode = L.Executor.physical cfg lq ~dense_of:(fun _ -> false) ghd in
  let vid name =
    let rec go i =
      if i >= Array.length lq.L.Logical.vertices then failwith ("no vertex " ^ name)
      else if String.equal lq.L.Logical.vertices.(i).L.Logical.vname name then i
      else go (i + 1)
    in
    go 0
  in
  let o = vid "orderkey" and c = vid "custkey" and s = vid "suppkey" and n = vid "nationkey" in
  let rels = L.Executor.rel_infos lq ~dense_of:(fun _ -> false) pnode.L.Executor.pbag in
  let weights =
    L.Attr_order.vertex_weights
      (Array.to_list lq.L.Logical.edges
      |> List.map (fun (e : L.Logical.edge) ->
             {
               L.Attr_order.rvertices = e.L.Logical.vertices;
               rcard = e.L.Logical.table.Lh_storage.Table.nrows;
               reselected = e.L.Logical.eq_selected;
               rdense = false;
             }))
  in
  let cache : L.Executor.trie_cache = L.Vcache.create () in
  let budget =
    Lh_util.Budget.create ~max_live_words:params.C.mem_words ~max_seconds:params.C.timeout ()
  in
  let orders =
    (* the four orders of Fig. 5c: o = orderkey, c = custkey, s = suppkey,
       n = nationkey *)
    [
      ("[o,c,s,n]", [ o; c; s; n ]);
      ("[o,c,n,s]", [ o; c; n; s ]);
      ("[n,c,s,o]", [ n; c; s; o ]);
      ("[c,n,s,o]", [ c; n; s; o ]);
    ]
  in
  C.print_header (Printf.sprintf "Figure 5c — TPC-H Q5 attribute orders (sf=%g)" sf)
    [ "cost"; "runtime" ];
  List.iter
    (fun (label, order) ->
      let cost = L.Attr_order.cost ~rels ~weights order in
      let forced = { pnode with L.Executor.porder = order; prelaxed = false } in
      let run () = L.Executor.run { cfg with L.Config.budget } ~cache lq forced in
      let t = C.measured ~budget ~runs:params.C.runs ~system:label ~sql:Queries.q5 run in
      C.print_row label [ Printf.sprintf "%.0f" cost; C.outcome_to_string t ])
    orders
