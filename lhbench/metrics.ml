(* Every metric the benchmark reports, with its unit. BENCHMARK.json at
   the repository root lists the same names; the self-test checks both. *)

let end_to_end =
  [ ("setup_s", "s"); ("queries_per_s", "1/s"); ("query_p50_s", "s"); ("query_p90_s", "s");
    ("live_heap_mb", "MB"); ("ingest_p50_s", "s"); ("ingest_p90_s", "s"); ("recover_s", "s");
    ("disk_mb", "MB") ]

(* The la kernels, by the labels Inputs.la_tables gives them. *)
let la_kernels =
  [ "smv_harbor"; "smv_hv15r"; "smv_nlpkkt"; "smv_band"; "smm_band"; "dmv"; "dmm" ]

let per_layer =
  [ ("sql.parse_s", "s"); ("core.plan_s", "s"); ("core.plan_cache_hit_ratio", "ratio");
    ("storage.trie_build_s", "s"); ("storage.trie_build_cold_s", "s");
    ("core.trie_cache_hit_ratio", "ratio");
    ("storage.tries_built_per_query", "count"); ("storage.dict_entries", "count");
    ("core.exec_s", "s"); ("set.intersections_per_query", "count");
    ("set.inter_bb_share", "ratio"); ("set.inter_bu_share", "ratio");
    ("set.inter_uu_share", "ratio"); ("set.count_only_per_query", "count");
    ("core.rows_emitted_per_query", "count"); ("blas.kernel_s", "s") ]
  @ List.map (fun k -> ("la.exec_over_kernel." ^ k, "ratio")) la_kernels
  @ [ ("core.dense_cache_hit_ratio", "ratio"); ("serve.query_overhead_s", "s");
      ("serve.snapshot_s", "s"); ("core.register_rows_s", "s"); ("durable.log_batch_s", "s");
      ("durable.fsyncs_per_ingest", "count"); ("durable.wal_bytes_per_user_byte", "ratio");
      ("durable.open_dir_s", "s"); ("durable.replay_s", "s");
      ("gc.minor_words_per_query", "words"); ("obs.trace_overhead", "ratio");
      ("gen.late_max_s", "s") ]
