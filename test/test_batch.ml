(* The batch hot path: packed {!Event.Batch} containers, the
   batch ≡ per-event equivalence contract of {!Tool.t}, and the
   allocation budget of batched replay (the reason the path exists). *)

module Event = Aprof_trace.Event
module Batch = Aprof_trace.Event.Batch
module Stream = Aprof_trace.Trace_stream
module Codec = Aprof_trace.Trace_codec
module Tool = Aprof_tools.Tool
module Harness = Aprof_tools.Harness
module Vec = Aprof_util.Vec

let event = Alcotest.testable Event.pp Event.equal

let sample_events =
  [
    Event.Call { tid = 0; routine = 3 };
    Event.Read { tid = 0; addr = 17 };
    Event.Write { tid = 1; addr = max_int };
    Event.Block { tid = 2; units = 5 };
    Event.User_to_kernel { tid = 0; addr = 4; len = 9 };
    Event.Kernel_to_user { tid = 1; addr = 0; len = 2 };
    Event.Acquire { tid = 3; lock = 1 };
    Event.Release { tid = 3; lock = 1 };
    Event.Alloc { tid = 0; addr = 100; len = 8 };
    Event.Free { tid = 0; addr = 100; len = 8 };
    Event.Thread_start { tid = 4 };
    Event.Thread_exit { tid = 4 };
    Event.Switch_thread { tid = 2 };
    Event.Return { tid = 0 };
  ]

let test_push_get_roundtrip () =
  let b = Batch.create ~capacity:(List.length sample_events) () in
  List.iter (Batch.push b) sample_events;
  Alcotest.(check int) "length" (List.length sample_events) (Batch.length b);
  Alcotest.(check bool) "full" true (Batch.is_full b);
  List.iteri
    (fun i e -> Alcotest.check event "round-trip" e (Batch.get b i))
    sample_events

let test_of_trace_to_trace () =
  let tr = Vec.of_list sample_events in
  let b = Batch.of_trace tr in
  let tr' = Batch.to_trace b in
  Alcotest.(check (list event)) "of_trace/to_trace" sample_events
    (Vec.to_list tr')

let test_filter_in_place () =
  let b = Batch.of_trace (Vec.of_list sample_events) in
  let keep = function Event.Read _ | Event.Write _ -> true | _ -> false in
  Batch.filter_in_place keep b;
  Alcotest.(check (list event))
    "only reads and writes"
    (List.filter keep sample_events)
    (Vec.to_list (Batch.to_trace b))

let test_clear_reuse () =
  let b = Batch.create ~capacity:4 () in
  List.iter (Batch.push b) [ List.hd sample_events ];
  Batch.clear b;
  Alcotest.(check int) "cleared" 0 (Batch.length b);
  Alcotest.(check bool) "not full" false (Batch.is_full b);
  (* The container is recycled: a second fill sees no residue. *)
  List.iter (Batch.push b) [ Event.Return { tid = 9 } ];
  Alcotest.check event "fresh content" (Event.Return { tid = 9 }) (Batch.get b 0)

(* --- batch ≡ per-event, for every standard tool ----------------------

   [Tool.on_batch] must be observationally equivalent to [on_event] over
   the unpacked events.  A tiny batch size forces many boundaries, so
   state carried across batches is exercised too. *)

let equivalence_test (factory : Tool.factory) =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30
       ~name:("batch = per-event: " ^ factory.Tool.tool_name)
       ~print:Gen_trace.print (Gen_trace.gen ())
       (fun trace ->
         let per_event = factory.Tool.create () in
         Tool.replay per_event trace;
         let batched = factory.Tool.create () in
         let n =
           Tool.replay_batches batched
             (Stream.batches_of_trace ~batch_size:7 trace)
         in
         if n <> Vec.length trace then
           QCheck2.Test.fail_reportf "replayed %d of %d events" n
             (Vec.length trace);
         let s1 = per_event.Tool.summary () in
         let s2 = batched.Tool.summary () in
         if s1 <> s2 then
           QCheck2.Test.fail_reportf "summaries differ:@.%s@.-- vs --@.%s" s1
             s2;
         per_event.Tool.space_words () = batched.Tool.space_words ()))

let equivalence_tests () = List.map equivalence_test (Harness.standard_factories ())

(* --- allocation regression -------------------------------------------

   The batched pipeline exists to keep the per-event heap cost at the
   decode edge: replaying a binary trace into nulgrind must run the
   whole decode + dispatch path without allocating per event, and the
   drms profiler must stay within a small constant (shadow leaves and
   fresh profile accumulators amortize to well under a word per event at
   this trace size). *)

let synth_trace n =
  let tr = Vec.create () in
  let i = ref 0 in
  let tid = ref 0 in
  while Vec.length tr < n do
    tid := (!tid + 1) land 1;
    Vec.push tr (Event.Switch_thread { tid = !tid });
    Vec.push tr (Event.Call { tid = !tid; routine = !i mod 7 });
    for k = 0 to 7 do
      let addr = ((!i * 17) + (k * 3)) land 1023 in
      if k land 1 = 0 then Vec.push tr (Event.Read { tid = !tid; addr })
      else Vec.push tr (Event.Write { tid = !tid; addr })
    done;
    Vec.push tr (Event.Return { tid = !tid });
    incr i
  done;
  tr

let batched_minor_words_per_event (factory : Tool.factory) trace =
  let file = Filename.temp_file "aprof_batch_alloc" ".atrc" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let n =
    Out_channel.with_open_bin file (fun oc ->
        Stream.connect_batches
          (Stream.batches_of_trace trace)
          (Codec.batch_writer oc))
  in
  In_channel.with_open_bin file (fun ic ->
      let tool = factory.Tool.create () in
      let _names, batches = Codec.batch_reader ic in
      Gc.full_major ();
      let m0 = Gc.minor_words () in
      let n' = Tool.replay_batches tool batches in
      let words = Gc.minor_words () -. m0 in
      Alcotest.(check int) "replay count" n n';
      words /. float_of_int n)

let factory_named name =
  List.find
    (fun (f : Tool.factory) -> f.Tool.tool_name = name)
    (Harness.standard_factories ())

let test_nulgrind_allocation_free () =
  let w = batched_minor_words_per_event (factory_named "nulgrind") (synth_trace 100_000) in
  if w >= 1.0 then
    Alcotest.failf "batched nulgrind replay allocates %.2f minor words/event" w

let test_drms_allocation_budget () =
  let w =
    batched_minor_words_per_event (factory_named "aprof-drms") (synth_trace 100_000)
  in
  if w >= 3.0 then
    Alcotest.failf "batched drms replay allocates %.2f minor words/event" w

(* Format version 3 on a mysqlslap trace: encode and decode must also
   stay off the minor heap per event.  Most mysqlslap literals probe the
   pattern dictionary, and its short repeat regions decode through the
   bounds-checked varint path, so an allocation in either shows here.
   Scale 300 is ~64k events, enough to amortize the per-chunk tables. *)
let test_v3_allocation_budget () =
  let spec = Option.get (Aprof_workloads.Registry.find "mysqlslap") in
  let result =
    Aprof_workloads.Workload.run_spec spec ~threads:4 ~scale:300 ~seed:1
  in
  let trace = result.Aprof_vm.Interp.trace in
  let n = float_of_int (Vec.length trace) in
  let file = Filename.temp_file "aprof_v3_alloc" ".atrc" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  ignore
    (Out_channel.with_open_bin file (fun oc ->
         Stream.connect_batches
           (Stream.batches_of_trace trace)
           (Codec.batch_writer ~format_version:3 oc)));
  let encode = (Gc.minor_words () -. m0) /. n in
  let decode =
    In_channel.with_open_bin file (fun ic ->
        let _names, batches = Codec.batch_reader ic in
        Gc.full_major ();
        let m0 = Gc.minor_words () in
        let rec drain k =
          match batches () with None -> k | Some b -> drain (k + Batch.length b)
        in
        Alcotest.(check int) "decoded events" (Vec.length trace) (drain 0);
        (Gc.minor_words () -. m0) /. n)
  in
  if encode >= 0.5 then
    Alcotest.failf "v3 encode of mysqlslap allocates %.2f minor words/event"
      encode;
  if decode >= 0.5 then
    Alcotest.failf "v3 decode of mysqlslap allocates %.2f minor words/event"
      decode

let suite =
  [
    Alcotest.test_case "push/get round-trip" `Quick test_push_get_roundtrip;
    Alcotest.test_case "of_trace/to_trace" `Quick test_of_trace_to_trace;
    Alcotest.test_case "filter_in_place" `Quick test_filter_in_place;
    Alcotest.test_case "clear recycles" `Quick test_clear_reuse;
    Alcotest.test_case "nulgrind batched replay allocation-free" `Quick
      test_nulgrind_allocation_free;
    Alcotest.test_case "drms batched replay allocation budget" `Quick
      test_drms_allocation_budget;
    Alcotest.test_case "v3 encode/decode allocation budget (mysqlslap)" `Quick
      test_v3_allocation_budget;
  ]
  @ equivalence_tests ()
