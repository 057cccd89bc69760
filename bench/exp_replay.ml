(* Replay-path benchmark: the packed batch hot path vs the per-event
   path, per tool.

   A PARSEC miniature is scaled until its trace crosses the target event
   count, recorded to a binary trace file, then replayed into every
   standard tool twice from the same file: once through the per-event
   pipeline (decode -> Event.t -> on_event) and once through the batch
   pipeline (decode -> Event.Batch -> on_batch).  The figures of merit
   are events/second and minor-words/event; the batch path exists to
   push the latter to ~0 for tools that never unpack (nulgrind) and to
   strip the variant+closure tax off the profilers.

   One more row prices the stage in front of every replay: the VM
   itself, run through its packed hot path with a no-op callback, so the
   instrumentation floor has a committed figure of its own. *)

module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Tool = Aprof_tools.Tool
module Harness = Aprof_tools.Harness
module Vec = Aprof_util.Vec

(* Wall clock, not [Sys.time]: the latter ticks at 10ms on Linux, the
   same order as one replay run, so it quantizes the very ratio this
   experiment exists to measure.  Contention noise is handled by taking
   the best of several interleaved runs instead. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* The VM alone: [Workload.run_batched] with a callback that ignores its
   batches, best of 3 from a compacted heap.  Building the workload's
   programs is outside the clock. *)
let measure_vm ppf spec ~scale ~n_events =
  let once () =
    let w = spec.Workload.make ~threads:4 ~scale ~seed:42 in
    Gc.compact ();
    let m0 = Gc.minor_words () in
    let seconds, result =
      time (fun () -> Workload.run_batched w ~seed:42 ~tool:(fun _ _ -> ()))
    in
    let events = result.Aprof_vm.Interp.events_emitted in
    if events <> n_events then failwith "replay bench: vm event count mismatch";
    (seconds, events, (Gc.minor_words () -. m0) /. float_of_int events)
  in
  let best = ref (once ()) in
  for _ = 2 to 3 do
    let (s, _, _) as r = once () in
    let s_best, _, _ = !best in
    if s < s_best then best := r
  done;
  let seconds, events, words = !best in
  let mev = float_of_int events /. Float.max seconds 1e-9 /. 1e6 in
  Format.fprintf ppf "@.vm (run_batched, no-op callback): %d events, %.3f s, \
                      %.1f Mev/s, %.2f minor words/event@."
    events seconds mev words;
  Exp_common.emit_row ~experiment:"vm"
    [
      ("workload", Exp_common.String spec.Workload.name);
      ("scale", Exp_common.Int scale);
      ("events", Exp_common.Int events);
      ("seconds", Exp_common.Float seconds);
      ("mev_per_s", Exp_common.Float mev);
      ("minor_words_per_event", Exp_common.Float words);
      ("cores", Exp_common.Int (Aprof_util.Par.available_parallelism ()));
      ("ocaml", Exp_common.String Sys.ocaml_version);
    ]

let run ~quick ppf =
  Exp_common.section ppf "replay: batched vs per-event hot path";
  let target = if quick then 150_000 else 2_400_000 in
  let spec =
    match Registry.find "blackscholes" with
    | Some s -> s
    | None -> failwith "blackscholes workload missing"
  in
  let rec grow scale =
    let result = Workload.run_spec spec ~threads:4 ~scale ~seed:42 in
    let n = Vec.length result.Aprof_vm.Interp.trace in
    if n >= target || scale > 8_000_000 then (result, scale)
    else grow (scale * 2)
  in
  let result, scale = grow (target / 8) in
  let trace = result.Aprof_vm.Interp.trace in
  let routines = result.Aprof_vm.Interp.routines in
  let n_events = Vec.length trace in
  Format.fprintf ppf "workload: %s, scale %d -> %d events@." "blackscholes"
    scale n_events;
  let routine_name = Aprof_trace.Routine_table.name routines in
  let bin_file = Filename.temp_file "aprof_replay" ".atrc" in
  let encoded =
    Out_channel.with_open_bin bin_file (fun oc ->
        Stream.connect_batches
          (Stream.batches_of_trace trace)
          (Codec.batch_writer ~routine_name oc))
  in
  if encoded <> n_events then failwith "replay bench: encode count mismatch";
  (* One throwaway decode so the file is in the page cache before the
     first timed run. *)
  In_channel.with_open_bin bin_file (fun ic ->
      let tool = Aprof_tools.Nulgrind.tool () in
      let _names, batches = Codec.batch_reader ic in
      ignore (Tool.replay_batches tool batches));
  let measure_once factory mode =
    let tool = factory.Tool.create () in
    (* Start every run from the same heap shape, or the garbage of one
       measurement is collected on a later one's clock. *)
    Gc.compact ();
    In_channel.with_open_bin bin_file (fun ic ->
        let m0 = Gc.minor_words () in
        let seconds, n =
          time (fun () ->
              match mode with
              | `Batch ->
                let _names, batches = Codec.batch_reader ic in
                Tool.replay_batches tool batches
              | `Event ->
                let _names, stream = Codec.reader ic in
                Tool.replay_stream tool stream;
                n_events)
        in
        if n <> n_events then failwith "replay bench: replay count mismatch";
        let words = Gc.minor_words () -. m0 in
        (seconds, words /. float_of_int n_events))
  in
  (* Runs are tens of milliseconds, so a stray timer tick or collection
     skews a single sample: keep the fastest of several, and alternate
     the two modes so machine-speed drift cannot land on just one.
     Contention noise does not shrink with run length, so each tool gets
     a fixed time budget of extra interleaved reps — fast tools (where a
     few ms of noise moves the ratio most) collect many samples, slow
     ones stop early. *)
  let budget = 3.0 in
  let max_reps = 8 in
  let measure_pair factory =
    let best_ev = ref (measure_once factory `Event) in
    let best_b = ref (measure_once factory `Batch) in
    let spent = ref (fst !best_ev +. fst !best_b) in
    let reps = ref 0 in
    while (not quick) && !spent < budget && !reps < max_reps do
      incr reps;
      let (s, _) as r = measure_once factory `Event in
      if s < fst !best_ev then best_ev := r;
      let (s', _) as r' = measure_once factory `Batch in
      if s' < fst !best_b then best_b := r';
      spent := !spent +. s +. s'
    done;
    (!best_ev, !best_b)
  in
  let rate s = float_of_int n_events /. Float.max s 1e-9 /. 1e6 in
  Format.fprintf ppf "  %-12s %28s   %28s   %s@." ""
    "per-event (Mev/s, w/ev)" "batch (Mev/s, w/ev)" "speedup";
  List.iter
    (fun factory ->
      let (ev_s, ev_w), (b_s, b_w) = measure_pair factory in
      let speedup = ev_s /. Float.max b_s 1e-9 in
      Format.fprintf ppf "  %-12s %15.1f %12.2f   %15.1f %12.2f   %.2fx@."
        factory.Tool.tool_name (rate ev_s) ev_w (rate b_s) b_w speedup;
      Exp_common.emit_row ~experiment:"replay"
        [
          ("tool", Exp_common.String factory.Tool.tool_name);
          ("events", Exp_common.Int n_events);
          ("per_event_seconds", Exp_common.Float ev_s);
          ("per_event_mev_per_s", Exp_common.Float (rate ev_s));
          ("per_event_minor_words_per_event", Exp_common.Float ev_w);
          ("batch_seconds", Exp_common.Float b_s);
          ("batch_mev_per_s", Exp_common.Float (rate b_s));
          ("batch_minor_words_per_event", Exp_common.Float b_w);
          ("speedup", Exp_common.Float speedup);
        ])
    (List.filter
       (fun f -> Exp_common.keep_tool f.Tool.tool_name)
       (Harness.standard_factories ()));
  (* --- trace-format sweep: batch replay per container version --------

     The same trace replayed off a v2 and a v3 file through the batch
     hot path.  v3 must not lose throughput: its chunks are an order of
     magnitude smaller and the repeat decoder replays memoized template
     rows instead of re-parsing varints, so the bytes saved must show
     up as events per second, not just disk.  The entropy-coded variant
     is included to price the archival option. *)
  Format.fprintf ppf "@.trace formats (batch replay):@.";
  Format.fprintf ppf "  %-12s %-8s %12s %12s@." "tool" "format" "bytes"
    "Mev/s";
  (* Regenerate the trace (deterministic per seed) rather than holding
     the vector live across the per-tool measurements above: a live
     multi-megaword trace would be marked by every major slice landing
     inside a timed replay. *)
  let result = Workload.run_spec spec ~threads:4 ~scale ~seed:42 in
  let trace = result.Aprof_vm.Interp.trace in
  let routine_name =
    Aprof_trace.Routine_table.name result.Aprof_vm.Interp.routines
  in
  let formats = [ ("v2", 2, false); ("v3", 3, false); ("v3+ent", 3, true) ] in
  let files =
    List.map
      (fun (label, format_version, entropy) ->
        let file = Filename.temp_file "aprof_replay_fmt" ".atrc" in
        let encoded =
          Out_channel.with_open_bin file (fun oc ->
              Stream.connect_batches
                (Stream.batches_of_trace trace)
                (Codec.batch_writer ~format_version ~entropy ~routine_name oc))
        in
        if encoded <> n_events then
          failwith "replay bench: format encode count mismatch";
        (label, file))
      formats
  in
  let replay_file factory file =
    let tool = factory.Tool.create () in
    Gc.compact ();
    In_channel.with_open_bin file (fun ic ->
        let seconds, n =
          time (fun () ->
              let _names, batches = Codec.batch_reader ic in
              Tool.replay_batches tool batches)
        in
        if n <> n_events then failwith "replay bench: format replay mismatch";
        seconds)
  in
  List.iter
    (fun tool_name ->
      match
        List.find_opt
          (fun f -> f.Tool.tool_name = tool_name)
          (Harness.standard_factories ())
      with
      | Some factory when Exp_common.keep_tool tool_name ->
        List.iter
          (fun (label, file) ->
            let best = ref (replay_file factory file) in
            let reps = if quick then 1 else 5 in
            for _ = 2 to reps do
              let s = replay_file factory file in
              if s < !best then best := s
            done;
            let bytes =
              Int64.to_int (In_channel.with_open_bin file In_channel.length)
            in
            Format.fprintf ppf "  %-12s %-8s %12d %12.1f@." tool_name label
              bytes (rate !best);
            Exp_common.emit_row ~experiment:"replay"
              [
                ("tool", Exp_common.String tool_name);
                ("format", Exp_common.String label);
                ("events", Exp_common.Int n_events);
                ("bytes", Exp_common.Int bytes);
                ("batch_seconds", Exp_common.Float !best);
                ("batch_mev_per_s", Exp_common.Float (rate !best));
              ])
          files
      | _ -> ())
    [ "nulgrind"; "aprof-drms" ];
  List.iter (fun (_, file) -> Sys.remove file) files;
  Sys.remove bin_file;
  measure_vm ppf spec ~scale ~n_events
