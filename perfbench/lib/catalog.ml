(* Every metric the benchmark reports, by name and unit.  The lists
   must match BENCHMARK.json; run.py refuses a result whose metric
   names differ from it.

   The end-to-end metrics are the ones every workload has and that
   repeat from run to run: set-up time, throughput and peak memory.
   Stage figures that exist on some workloads only (record_mev_s,
   fit_s, trace_ms.p90, ...) are reported with the per-layer metrics
   of the traced run, where a workload that does not run the stage
   reports 0.  So is latency (pipeline_s, trace_ms.p50/p90): on
   mysql-offline it is one 10-14 s fit, two or three of them a run,
   and it does not repeat within the largest bound a benchmark may
   set. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_mev_s", "Mev/s");
    ("peak_mem_mb", "MB");
  ]

let tools = [ "nulgrind"; "memcheck"; "callgrind"; "helgrind"; "aprof"; "aprof-drms" ]

let per_layer =
  [
    (* stage figures of the untraced iterations *)
    ("record_mev_s", "Mev/s");
    ("replay_mev_s", "Mev/s");
    ("replay_par_mev_s", "Mev/s");
    ("tools_mev_s", "Mev/s");
    ("fit_s", "s");
    ("pipeline_s", "s");
    ("ingest_mev_s", "Mev/s");
    ("trace_ms.p50", "ms");
    ("trace_ms.p90", "ms");
    ("snapshot_ms.p50", "ms");
    ("snapshot_ms.p90", "ms");
    ("error_rate", "fraction");
    (* VM *)
    ("vm.s", "s");
    ("vm.events", "count");
    ("vm.minor_words_per_event", "words");
    (* encode / decode *)
    ("encode.s", "s");
    ("encode.bytes_per_event", "B");
    ("encode.minor_words_per_event", "words");
    ("encode.record_share", "fraction");
    ("decode.s", "s");
    ("decode.minor_words_per_event", "words");
    (* drms profiler *)
    ("drms.s", "s");
    ("drms.minor_words_per_event", "words");
    ("drms.space_words", "words");
    ("drms.renumber_count", "count");
    ("profile.activations", "count");
    ("profile.points", "count");
    (* parallel replay *)
    ("par.s", "s");
    ("par.speedup", "x");
    ("par.chunks", "count");
  ]
  @ List.concat_map
      (fun t ->
        [ ("tool." ^ t ^ ".s", "s"); ("tool." ^ t ^ ".minor_words_per_event", "words") ])
      tools
  @ [
      (* fit *)
      ("fit.curves", "count");
      ("fit.points", "count");
      ("fit.ms_per_curve", "ms");
      ("fit.pipeline_share", "fraction");
      (* Profile_io *)
      ("profile_io.save_ms", "ms");
      ("profile_io.bytes", "B");
      (* serve *)
      ("serve.traces", "count");
      ("serve.events", "count");
      ("serve.folds", "count");
      ("serve.drops", "count");
      ("client.write_ms", "ms");
      ("client.drain_ms", "ms");
      (* GC of the process doing the work *)
      ("gc.minor_words_per_event", "words");
      ("gc.major_collections", "count");
      (* the tracing itself *)
      ("trace.overhead", "fraction");
      ("coverage.record", "fraction");
      ("coverage.replay", "fraction");
      ("coverage.fit", "fraction");
      ("coverage.serve", "fraction");
    ]
