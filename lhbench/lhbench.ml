(* The repository benchmark: drives the engine through Lh_serve.Serve the
   way lhserve does, on inputs generated from a seed, checks every
   answer, and prints one JSON result as the last line of stdout. See
   README.md in this directory.

     lhbench --workload bi|la|ingest --seed N --seconds S --trace 0|1
     lhbench --self-test *)

module Serve = Lh_serve.Serve
module Json = Lh_obs.Json
module I = Inputs
module S = Service

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  notes : string list;
}

(* Adds a line to the run's report. *)
let note notes fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

(* A window of the ingest workload: the closed-loop reader beside the
   open-loop writer until [deadline]; every acknowledgement and feed
   answer is checked. *)
let ingest_window dep mix reader ~seed ~trace ~deadline ~perturb ~tally ~notes =
  let t0 = S.now () in
  let writer =
    Domain.spawn (fun () -> S.writer_loop dep.S.svc ~seed ~keys:mix.S.keys ~t0 ~deadline)
  in
  S.read_loop reader dep mix S.Ingest ~tally ~trace ~deadline;
  let batches = Domain.join writer in
  S.check_batches tally batches;
  S.check_feeds tally ~perturb (S.acked_log dep mix S.Ingest ~seed batches) reader;
  let late = S.late_max batches in
  note notes "writer: %d batches due at %g/s, late_max %.4fs, schedule %s" (List.length batches)
    S.batches_per_s late
    (if late > 1.0 /. S.batches_per_s then "MISSED (latencies invalid)" else "kept");
  batches

(* [sc.setups] timed set-ups; the last deployment is kept. *)
let setups sc w ~seed ~dir =
  let rec go i acc =
    let dep, dt = S.setup sc w ~seed ~dir in
    if i + 1 < sc.S.setups then begin
      Serve.close dep.S.svc;
      go (i + 1) (dt :: acc)
    end
    else (dep, List.rev (dt :: acc))
  in
  go 0 []

(* Untraced: the set-ups, then the measured window.
   - bi and la: the reader's window is cut into [sc.segments] segments,
     each followed by a side cycle, so ingest and recovery are sampled
     across the whole run as the queries are.
   - ingest: the writer runs beside the reader for the whole window;
     then the service is closed and, with the deployment released, its
     store is recovered in a compacted heap, as in a freshly started
     lhserve. *)
let end_to_end sc w ~seed ~seconds ~perturb ~scratch ~tally ~notes =
  let dep, setup_times = setups sc w ~seed ~dir:(Filename.concat scratch "store") in
  let mix = S.mix_of dep ~perturb in
  let reader = S.new_reader () in
  let t0 = S.now () in
  let batches, recovers, disk_mb, heap_mb =
    if w = S.Ingest then begin
      let batches =
        ingest_window dep mix reader ~seed ~trace:false ~deadline:(t0 +. seconds) ~perturb
          ~tally ~notes
      in
      (* the heap is measured with the current epoch's view warm *)
      S.warm_up dep mix.S.queries w;
      let heap_mb = S.live_heap_mb () in
      let expect =
        S.durable_expect ~start_epoch:dep.S.start_epoch (S.acked_log dep mix w ~seed batches)
      in
      Serve.close dep.S.svc;
      let dir = dep.S.dir in
      (* the deployment is unreachable from here *)
      Gc.compact ();
      (batches, S.recover_repeatedly sc tally ~dir expect, [ S.mb (S.dir_bytes dir) ], heap_mb)
    end
    else begin
      let sides =
        List.init sc.S.segments (fun i ->
            let deadline = t0 +. (seconds *. float (i + 1) /. float sc.S.segments) in
            S.read_loop reader dep mix w ~tally ~trace:false ~deadline;
            S.side_cycle sc dep ~seed ~keys:mix.S.keys ~tally
              ~dir:(Filename.concat scratch "side") ~first:(i * sc.S.side_batches))
      in
      let heap_mb = S.live_heap_mb () in
      Serve.close dep.S.svc;
      ( List.concat_map (fun s -> s.S.s_batches) sides,
        List.concat_map (fun s -> s.S.s_recovers) sides,
        List.map (fun s -> s.S.s_disk_mb) sides,
        heap_mb )
    end
  in
  let lat = S.latencies reader in
  let ingest = List.map (fun b -> b.S.b_ack -. b.S.b_due) batches in
  note notes "samples: %d queries, %d ingests, %d recoveries; set-ups %s" (List.length lat)
    (List.length ingest) (List.length recovers)
    (String.concat " " (List.map (Printf.sprintf "%.3fs") setup_times));
  let of_label l =
    List.filter_map (fun (l', t) -> if l = l' then Some t else None) reader.S.lat
  in
  note notes "p50 by query: %s"
    (String.concat " "
       (List.map
          (fun l -> Printf.sprintf "%s=%.4f" l (S.median (of_label l)))
          (List.sort_uniq compare (List.map fst reader.S.lat))));
  [ ("setup_s", S.median setup_times);
    ("queries_per_s", float reader.S.correct /. reader.S.busy); ("query_p50_s", S.median lat);
    ("query_p90_s", S.quantile lat 0.9); ("live_heap_mb", heap_mb);
    ("ingest_p50_s", S.median ingest); ("ingest_p90_s", S.quantile ingest 0.9);
    ("recover_s", S.median recovers); ("disk_mb", S.median disk_mb) ]

(* Traced: one set-up and one window, then the per-layer probes. *)
let per_layer sc w ~seed ~seconds ~perturb ~scratch ~tally ~notes =
  let dep, _ = S.setup sc w ~seed ~dir:(Filename.concat scratch "store") in
  let mix = S.mix_of dep ~perturb in
  let reader = S.new_reader () in
  let deadline = S.now () +. seconds in
  let c0 = Probes.counters () in
  let window =
    if w = S.Ingest then
      ingest_window dep mix reader ~seed ~trace:true ~deadline ~perturb ~tally ~notes
    else begin
      S.read_loop reader dep mix w ~tally ~trace:true ~deadline;
      []
    end
  in
  let c1 = Probes.counters () in
  let batches =
    if w = S.Ingest then List.map (fun b -> (b.S.b_table, b.S.b_rows)) window
    else
      (* one side cycle's batches: the WAL each recovery replays *)
      List.init sc.S.side_batches (fun i ->
          (i mod I.feed_tables, I.feed_batch ~seed ~keys:mix.S.keys ~rows:sc.S.side_rows i))
  in
  (* the generator's worst lateness: the open-loop writer's against its
     schedule on ingest, the closed-loop reader's between a reply and its
     next query elsewhere *)
  let late_max = if w = S.Ingest then S.late_max window else reader.S.late_max in
  Probes.metrics sc dep mix ~reader ~c0 ~c1 ~late_max ~batches ~scratch

let run sc w ~seed ~seconds ~trace ~perturb ~scratch =
  let tally = { S.attempted = 0; failed = 0 } in
  let notes = ref [] in
  let metrics =
    (if trace then per_layer else end_to_end) sc w ~seed ~seconds ~perturb ~scratch ~tally ~notes
  in
  let metrics =
    List.map
      (fun (name, v) ->
        if Float.is_finite v then (name, v)
        else begin
          S.record tally name (Some "no samples");
          (name, 0.0)
        end)
      metrics
  in
  { attempted = tally.S.attempted; failed = tally.S.failed; metrics; notes = List.rev !notes }

let specs ~trace = if trace then Metrics.per_layer else Metrics.end_to_end

let result_json ~trace o =
  let units = specs ~trace in
  Json.Obj
    [ ("correct", Json.Bool (o.failed = 0)); ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v) ->
               let unit = Json.String (List.assoc name units) in
               (name, Json.Obj [ ("value", Json.Float v); ("unit", unit) ]))
             o.metrics) ) ]

(* ---------------------------------------------------------------- *)
(* Self-test                                                         *)

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (fun c ->
         match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* The metric names and units ./BENCHMARK.json declares under [key]. *)
let declared key =
  if not (Sys.file_exists "BENCHMARK.json") then None
  else
    let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
    match Json.member key (Json.parse text) with
    | Some (Json.List l) ->
        Some
          (List.filter_map
             (fun m ->
               match (Json.member "name" m, Json.member "unit" m) with
               | Some (Json.String n), Some (Json.String u) -> Some (n, u)
               | _ -> None)
             l)
    | _ -> None

(* At tiny sizes: every workload, traced and untraced, runs clean and
   emits exactly the declared metrics with their units and valid names;
   a perturbed reference answer makes every workload report failures. *)
let self_test ~scratch =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (key, trace) ->
      let spec = specs ~trace in
      List.iter (fun (n, _) -> if not (valid_name n) then problem "bad metric name %S" n) spec;
      match declared key with
      | Some d when d = spec -> ()
      | Some _ -> problem "BENCHMARK.json %s differs from the program's list" key
      | None -> problem "no %s list in ./BENCHMARK.json" key)
    [ ("end_to_end", false); ("per_layer", true) ];
  List.iter
    (fun (wname, w) ->
      List.iter
        (fun trace ->
          let o = run S.tiny w ~seed:11 ~seconds:1.5 ~trace ~perturb:false ~scratch in
          let json = result_json ~trace o in
          let emitted =
            match Json.member "metrics" json with
            | Some (Json.Obj m) ->
                List.map
                  (fun (n, v) ->
                    (n, match Json.member "unit" v with Some (Json.String u) -> u | _ -> "?"))
                  m
            | _ -> []
          in
          if emitted <> specs ~trace then
            problem "%s trace=%b: metrics differ from the list" wname trace;
          if o.failed <> 0 then problem "%s trace=%b: %d failed" wname trace o.failed;
          Printf.printf "self-test %s trace=%b: %d attempted, %d failed, %d metrics\n%!" wname
            trace o.attempted o.failed (List.length emitted))
        [ false; true ];
      let o = run S.tiny w ~seed:11 ~seconds:1.5 ~trace:false ~perturb:true ~scratch in
      Printf.printf "self-test %s perturbed: %d attempted, %d failed\n%!" wname o.attempted
        o.failed;
      if o.failed = 0 then problem "%s: a perturbed reference was not caught" wname)
    S.workloads;
  match List.rev !problems with
  | [] -> print_endline "self-test ok"; 0
  | ps ->
      List.iter (fun p -> Printf.printf "self-test FAILED: %s\n" p) ps;
      1

(* ---------------------------------------------------------------- *)
(* Command line                                                      *)

let usage () =
  prerr_endline
    "usage: lhbench --workload bi|la|ingest --seed N --seconds S --trace 0|1\n\
    \       lhbench --self-test";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> acc
    | "--self-test" :: rest -> parse (("self-test", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let scratch = Filename.concat ".lhbench" (string_of_int (Unix.getpid ())) in
  let cleanup () =
    S.rm_rf scratch;
    try Unix.rmdir ".lhbench" with Unix.Unix_error _ -> ()
  in
  let finish code =
    cleanup ();
    exit code
  in
  S.mkdir_p scratch;
  match get "self-test" with
  | Some _ -> finish (self_test ~scratch)
  | None -> (
      let int_arg k = Option.bind (get k) int_of_string_opt in
      match
        ( Option.bind (get "workload") (fun n -> List.assoc_opt n S.workloads),
          int_arg "seed",
          Option.bind (get "seconds") float_of_string_opt,
          int_arg "trace" )
      with
      | Some w, Some seed, Some seconds, Some (0 | 1 as t) when seconds > 0.0 -> (
          let trace = t = 1 in
          match run S.full w ~seed ~seconds ~trace ~perturb:false ~scratch with
          | o ->
              Printf.printf "# lhbench workload=%s seed=%d seconds=%g trace=%d\n"
                (Option.get (get "workload")) seed seconds t;
              List.iter (Printf.printf "# %s\n") o.notes;
              print_endline (Json.to_string (result_json ~trace o));
              finish 0
          | exception exn ->
              Printf.eprintf "lhbench: %s\n" (Printexc.to_string exn);
              finish 1)
      | _ ->
          cleanup ();
          usage ())
