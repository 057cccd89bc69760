(* The ingest daemon, bottom-up: the bounded inbox (backpressure), the
   socket-fed decoder state machine at hostile slice sizes, the sharded
   accumulators' fold/snapshot consistency, and the live server over
   real sockets — N concurrent clients must aggregate to exactly the
   offline merge, and one corrupt stream must never perturb the
   others. *)

module Event = Aprof_trace.Event
module Codec = Aprof_trace.Trace_codec
module Trace_net = Aprof_trace.Trace_net
module Stream = Aprof_trace.Trace_stream
module Inbox = Aprof_serve.Inbox
module Shard_acc = Aprof_serve.Shard_acc
module Fleet = Aprof_serve.Fleet
module Server = Aprof_serve.Server
module Profile = Aprof_core.Profile
module Vec = Aprof_util.Vec
module Workload = Aprof_workloads.Workload
module Registry = Aprof_workloads.Registry

(* ---------------------------------------------------------------- *)
(* Inbox *)

let test_inbox_round_trip () =
  let ib = Inbox.create ~capacity:1000 ~buffer_bytes:16 () in
  let b1 = Inbox.take_buffer ib in
  Bytes.fill b1 0 16 'a';
  Inbox.push ib b1 10;
  Alcotest.(check int) "queued" 10 (Inbox.queued_bytes ib);
  (match Inbox.pop ib with
  | Some (Inbox.Data (b, 10)) ->
    Alcotest.(check string) "contents" (String.make 10 'a')
      (Bytes.sub_string b 0 10);
    Inbox.recycle ib b
  | _ -> Alcotest.fail "expected Data");
  Alcotest.(check int) "drained" 0 (Inbox.queued_bytes ib);
  (* The recycled slice comes back out of take_buffer. *)
  let b2 = Inbox.take_buffer ib in
  Alcotest.(check bool) "recycled buffer reused" true (b1 == b2);
  Inbox.push_eof ib;
  (match Inbox.pop ib with
  | Some Inbox.Eof -> ()
  | _ -> Alcotest.fail "expected Eof");
  Alcotest.(check bool) "empty" true (Inbox.is_empty ib)

let test_inbox_oversized_when_empty () =
  let ib = Inbox.create ~capacity:10 ~buffer_bytes:64 () in
  (* Must not block: an empty queue accepts one slice of any size. *)
  Inbox.push ib (Bytes.create 64) 64;
  Alcotest.(check int) "accepted" 64 (Inbox.queued_bytes ib)

let test_inbox_backpressure () =
  let ib = Inbox.create ~capacity:100 ~buffer_bytes:64 () in
  Inbox.push ib (Bytes.create 64) 80;
  (* 80 queued; another 50 would exceed capacity, so the producer must
     block until the consumer pops. *)
  let second_done = Atomic.make false in
  let producer =
    Thread.create
      (fun () ->
        Inbox.push ib (Bytes.create 64) 50;
        Atomic.set second_done true)
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "producer blocked" false (Atomic.get second_done);
  Alcotest.(check int) "only first queued" 80 (Inbox.queued_bytes ib);
  (match Inbox.pop ib with
  | Some (Inbox.Data (_, 80)) -> ()
  | _ -> Alcotest.fail "expected first slice");
  Thread.join producer;
  Alcotest.(check bool) "producer unblocked" true (Atomic.get second_done);
  Alcotest.(check int) "second queued" 50 (Inbox.queued_bytes ib)

let test_inbox_close_neuters () =
  let ib = Inbox.create ~capacity:100 ~buffer_bytes:64 () in
  Inbox.push ib (Bytes.create 64) 80;
  (* A producer blocked on capacity must be released by close... *)
  let blocked =
    Thread.create (fun () -> Inbox.push ib (Bytes.create 64) 50) ()
  in
  Thread.delay 0.02;
  Inbox.close ib;
  Thread.join blocked;
  (* ...and everything queued is gone; later pushes are dropped. *)
  Alcotest.(check (option reject)) "queue cleared" None (Inbox.pop ib);
  Inbox.push ib (Bytes.create 64) 10;
  Alcotest.(check (option reject)) "push after close dropped" None
    (Inbox.pop ib)

(* ---------------------------------------------------------------- *)
(* Trace_net: the socket-fed decoder vs the whole-file reference *)

let small_run =
  lazy
    (let spec =
       match Registry.find "mysqlslap" with
       | Some s -> s
       | None -> failwith "mysqlslap missing"
     in
     Workload.run_spec
       ~scheduler:(Aprof_vm.Scheduler.Round_robin { slice = 64 })
       spec ~threads:3 ~scale:30 ~seed:11)

let trace_bytes ~version =
  let result = Lazy.force small_run in
  Codec.to_string ~format_version:version
    ~routine_name:
      (Aprof_trace.Routine_table.name result.Aprof_vm.Interp.routines)
    result.Aprof_vm.Interp.trace

type collected = {
  mutable lines : string list;  (* reversed *)
  mutable defs : (int * string) list;  (* reversed *)
  mutable ends : int;
  mutable drops : int;
}

let collector () =
  let c = { lines = []; defs = []; ends = 0; drops = 0 } in
  let cb =
    {
      Trace_net.on_batch =
        (fun b ->
          Event.Batch.iter_events
            (fun e -> c.lines <- Event.to_line e :: c.lines)
            b);
      on_define = (fun id name -> c.defs <- (id, name) :: c.defs);
      on_trace_end = (fun () -> c.ends <- c.ends + 1);
      on_drop = (fun _ -> c.drops <- c.drops + 1);
    }
  in
  (c, cb)

let feed_in_slices net s ~slice =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let pos = ref 0 in
  while !pos < n do
    let len = min slice (n - !pos) in
    Trace_net.feed net b ~pos:!pos ~len;
    pos := !pos + len
  done

let reference_lines s =
  match Codec.of_string s with
  | Ok (tr, names) -> (List.map Event.to_line (Vec.to_list tr), names)
  | Error e -> Alcotest.failf "reference decode failed: %s" e

let test_net_matches_reference () =
  List.iter
    (fun version ->
      let s = trace_bytes ~version in
      let expected_lines, expected_names = reference_lines s in
      List.iter
        (fun slice ->
          let c, cb = collector () in
          let net = Trace_net.create cb in
          feed_in_slices net s ~slice;
          Trace_net.close net;
          Alcotest.(check (list string))
            (Printf.sprintf "v%d slice=%d events" version slice)
            expected_lines
            (List.rev c.lines);
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "v%d slice=%d defs" version slice)
            expected_names (List.rev c.defs);
          Alcotest.(check int)
            (Printf.sprintf "v%d slice=%d trace ends" version slice)
            1 c.ends;
          Alcotest.(check int)
            (Printf.sprintf "v%d slice=%d completed" version slice)
            1
            (Trace_net.traces_completed net);
          Alcotest.(check int)
            (Printf.sprintf "v%d slice=%d nothing pending" version slice)
            0
            (Trace_net.pending_bytes net))
        [ 1; 3; 7; String.length s ])
    [ 1; 2; 3 ]

let test_net_back_to_back_traces () =
  let s = trace_bytes ~version:2 in
  let expected_lines, _ = reference_lines s in
  let c, cb = collector () in
  let net = Trace_net.create cb in
  feed_in_slices net (s ^ s ^ s) ~slice:13;
  Trace_net.close net;
  Alcotest.(check int) "three traces" 3 (Trace_net.traces_completed net);
  Alcotest.(check int) "three ends" 3 c.ends;
  Alcotest.(check int) "triple events"
    (3 * List.length expected_lines)
    (List.length c.lines)

let test_net_with_footer () =
  (* batch_writer with the shard index exercises the footer path,
     including the strict streamed-frames cross-check. *)
  let result = Lazy.force small_run in
  let file = Filename.temp_file "aprof_serve_footer" ".atrc" in
  Out_channel.with_open_bin file (fun oc ->
      let sink =
        Codec.batch_writer ~chunk_bytes:256 ~index:true
          ~routine_name:
            (Aprof_trace.Routine_table.name result.Aprof_vm.Interp.routines)
          oc
      in
      let batches = Stream.batches_of_trace result.Aprof_vm.Interp.trace in
      let rec loop () =
        match batches () with
        | None -> ()
        | Some b ->
          sink.Stream.emit_batch b;
          loop ()
      in
      loop ();
      sink.Stream.close_batch ());
  let s = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  let expected_lines, _ = reference_lines s in
  List.iter
    (fun slice ->
      let c, cb = collector () in
      let net = Trace_net.create cb in
      feed_in_slices net s ~slice;
      Trace_net.close net;
      Alcotest.(check (list string))
        (Printf.sprintf "footer slice=%d events" slice)
        expected_lines
        (List.rev c.lines))
    [ 7; String.length s ]

let test_net_truncation_detected () =
  let s = trace_bytes ~version:2 in
  let c, cb = collector () in
  ignore c;
  let net = Trace_net.create cb in
  let cut = String.sub s 0 (String.length s - 1) in
  feed_in_slices net cut ~slice:64;
  (match Trace_net.close net with
  | () -> Alcotest.fail "truncated stream accepted"
  | exception Stream.Decode_error _ -> ());
  Alcotest.(check bool) "poisoned" true (Trace_net.failure net <> None)

let test_net_strict_fails_on_corruption () =
  let s = trace_bytes ~version:2 in
  let b = Bytes.of_string s in
  (* Offset 40 is well inside the first chunk payload for this trace. *)
  Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 0xff));
  let _, cb = collector () in
  let net = Trace_net.create cb in
  match feed_in_slices net (Bytes.to_string b) ~slice:64 with
  | () -> Alcotest.fail "corrupt stream accepted"
  | exception Stream.Decode_error _ ->
    Alcotest.(check bool) "poisoned" true (Trace_net.failure net <> None);
    (* Every later call re-raises. *)
    (match Trace_net.feed net (Bytes.create 1) ~pos:0 ~len:1 with
    | () -> Alcotest.fail "poisoned machine accepted bytes"
    | exception Stream.Decode_error _ -> ())

let test_net_salvage_drops_chunk () =
  let s = trace_bytes ~version:2 in
  let b = Bytes.of_string s in
  Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 0xff));
  let expected_lines, _ = reference_lines s in
  let c, cb = collector () in
  let net = Trace_net.create ~salvage:true cb in
  feed_in_slices net (Bytes.to_string b) ~slice:64;
  Trace_net.close net;
  Alcotest.(check int) "one drop" 1 c.drops;
  Alcotest.(check int) "trace still completes" 1
    (Trace_net.traces_completed net);
  (* The dropped chunk's events are gone (for this small trace that can
     be all of them); nothing extra may appear. *)
  Alcotest.(check bool) "no events invented" true
    (List.length c.lines < List.length expected_lines)

(* One batch serves every version.  A strict decoder fills its
   [batch_size] batch — made at the first decoded record — and delivers
   it per fill, so after a full trace a connection holds that batch, the
   pending bytes and a cursor: no whole-chunk stage sized by the frame,
   and for version 3 no 64k-entry register tables.  The trace (mysqlslap,
   ~109k events in 64 KiB slices) fills whole 64 KiB frames. *)
let bounded_run =
  lazy
    (let spec = Option.get (Registry.find "mysqlslap") in
     Workload.run_spec spec ~threads:4 ~scale:400 ~seed:1)

let test_net_bounded_batch () =
  let cb =
    {
      Trace_net.on_batch = ignore;
      on_define = (fun _ _ -> ());
      on_trace_end = ignore;
      on_drop = ignore;
    }
  in
  let reachable ?batch_size s =
    let net = Trace_net.create ?batch_size cb in
    feed_in_slices net s ~slice:65536;
    Trace_net.close net;
    Obj.reachable_words (Obj.repr net)
  in
  List.iter
    (fun version ->
      let s =
        Codec.to_string ~format_version:version
          (Lazy.force bounded_run).Aprof_vm.Interp.trace
      in
      let w = reachable s in
      if w >= 80_000 then
        Alcotest.failf "v%d strict decoder holds %d words after a full trace"
          version w;
      (* [batch_size] sizes that one batch, whatever the version. *)
      let w = reachable ~batch_size:200_000 s in
      if w < 4 * 200_000 then
        Alcotest.failf "v%d decoder holds only %d words: no 200k batch?"
          version w)
    [ 1; 2; 3 ];
  let w = reachable ~batch_size:200_000 "" in
  if w >= 4 * 200_000 then
    Alcotest.failf "an idle connection holds %d words: batch made eagerly" w

(* ---------------------------------------------------------------- *)
(* Shard accumulators *)

let synthetic_profile ~routines ~tids =
  let p = Profile.create () in
  List.iter
    (fun r ->
      List.iter
        (fun tid ->
          Profile.record_activation p ~tid ~routine:r ~rms:(r + tid)
            ~drms:r ~cost:(10 * (r + 1)))
        tids)
    routines;
  p

let test_shard_fold_equals_merge () =
  let acc = Shard_acc.create ~shards:4 () in
  let parts =
    List.init 6 (fun i ->
        synthetic_profile
          ~routines:[ i; i + 1; (2 * i) + 3 ]
          ~tids:[ 0; 1; i mod 3 ])
  in
  List.iter (Shard_acc.fold acc) parts;
  Shard_acc.define acc 0 "zero";
  Shard_acc.define acc 1 "one";
  let expected = Profile.create () in
  List.iter (fun p -> Profile.merge_into ~into:expected p) parts;
  let got, names = Shard_acc.snapshot acc in
  Helpers.check_profiles_equal "sharded fold = offline merge" expected got;
  Alcotest.(check (option string)) "names copied" (Some "one")
    (Hashtbl.find_opt names 1);
  Alcotest.(check int) "folds counted" 6 (Shard_acc.folds acc);
  (* Every key sits on the shard its routine hashes to. *)
  for i = 0 to Shard_acc.shard_count acc - 1 do
    List.iter
      (fun (k : Profile.key) ->
        Alcotest.(check int)
          (Printf.sprintf "key routine %d on shard %d" k.Profile.routine i)
          i
          (Shard_acc.shard_of acc k.Profile.routine))
      (Shard_acc.shard_keys acc i)
  done

let test_shard_concurrent_folds () =
  let acc = Shard_acc.create ~shards:4 () in
  let parts =
    List.init 16 (fun i ->
        synthetic_profile ~routines:[ i mod 5; 7; i ] ~tids:[ 0; i mod 4 ])
  in
  let folders =
    List.map (fun p -> Thread.create (fun () -> Shard_acc.fold acc p) ()) parts
  in
  (* Snapshots racing the folds must each be internally consistent;
     the final one must equal the offline merge. *)
  for _ = 1 to 5 do
    ignore (Shard_acc.snapshot acc)
  done;
  List.iter Thread.join folders;
  let expected = Profile.create () in
  List.iter (fun p -> Profile.merge_into ~into:expected p) parts;
  let got, _ = Shard_acc.snapshot acc in
  Helpers.check_profiles_equal "concurrent folds = offline merge" expected got

(* ---------------------------------------------------------------- *)
(* Fleet CSV *)

let test_fleet_render () =
  let profile = synthetic_profile ~routines:[ 0; 1; 2 ] ~tids:[ 0; 1 ] in
  let clients =
    [
      {
        Fleet.name = "unix:#0";
        events = 100;
        traces = 2;
        drops = 0;
        bytes = 400;
        seconds = 2.0;
        error = None;
      };
      {
        Fleet.name = "weird,\"name\"";
        events = 50;
        traces = 1;
        drops = 3;
        bytes = 200;
        seconds = 1.0;
        error = Some "decode error";
      };
    ]
  in
  let doc =
    Fleet.render ~top:2 ~seconds:4.0
      ~name_of:(fun r -> Printf.sprintf "r%d" r)
      ~profile clients
  in
  let lines = String.split_on_char '\n' (String.trim doc) in
  Alcotest.(check string) "header" Fleet.header (List.hd lines);
  (* header + 2 clients + aggregate + 2 routine rows *)
  Alcotest.(check int) "row count" 6 (List.length lines);
  let has_prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  Alcotest.(check int) "client rows" 2
    (List.length (List.filter (has_prefix "client,") lines));
  (match List.find_opt (has_prefix "aggregate,") lines with
  | Some agg ->
    Alcotest.(check bool) "aggregate sums events" true
      (String.length agg > 0
      && String.split_on_char ',' agg |> fun f -> List.nth f 2 = "150")
  | None -> Alcotest.fail "no aggregate row");
  (* The quoted client name survives RFC-4180 escaping. *)
  Alcotest.(check bool) "quoting" true
    (List.exists (has_prefix "client,\"weird,\"\"name\"\"\"") lines);
  (* Routine rows are ranked by total cost: routine 2 costs most. *)
  (match List.filter (has_prefix "routine,") lines with
  | first :: _ ->
    Alcotest.(check bool) "top mover first" true (has_prefix "routine,r2" first)
  | [] -> Alcotest.fail "no routine rows")

(* ---------------------------------------------------------------- *)
(* Live server over real sockets *)

let temp_sock () =
  let p = Filename.temp_file "aprof_serve_test" ".sock" in
  Sys.remove p;
  p

let push_bytes ?flip ~sock ~repeat s =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let b = Bytes.of_string s in
  (match flip with
  | Some off -> Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff))
  | None -> ());
  let n = Bytes.length b in
  for _ = 1 to repeat do
    let rec write o =
      if o < n then
        match Unix.write fd b o (n - o) with
        | 0 -> failwith "closed"
        | k -> write (o + k)
    in
    (try write 0 with Unix.Unix_error _ -> ())
  done;
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let one = Bytes.create 1 in
  (try while Unix.read fd one 0 1 > 0 do () done with Unix.Unix_error _ -> ());
  Unix.close fd

let expected_merge ~copies =
  let result = Lazy.force small_run in
  let one = Helpers.run_drms result.Aprof_vm.Interp.trace in
  let expected = Profile.create () in
  for _ = 1 to copies do
    Profile.merge_into ~into:expected one
  done;
  expected

let start_test_server ?(salvage = false) sock =
  Server.start
    {
      Server.default_config with
      unix_path = Some sock;
      jobs = 2;
      shards = 4;
      salvage;
    }

let test_server_differential () =
  let s = trace_bytes ~version:2 in
  let sock = temp_sock () in
  let srv = start_test_server sock in
  (* 6 concurrent clients; two stream the trace twice back-to-back. *)
  let repeats = [ 1; 2; 1; 1; 2; 1 ] in
  let clients =
    List.map
      (fun repeat -> Thread.create (fun () -> push_bytes ~sock ~repeat s) ())
      repeats
  in
  List.iter Thread.join clients;
  let stats = Server.stats srv in
  Alcotest.(check int) "all traces folded"
    (List.fold_left ( + ) 0 repeats)
    stats.Server.s_traces;
  Alcotest.(check int) "no drops" 0 stats.Server.s_drops;
  let got, names = Server.snapshot srv in
  Server.stop srv;
  Helpers.check_profiles_equal "live ingest = offline merge"
    (expected_merge ~copies:(List.fold_left ( + ) 0 repeats))
    got;
  Alcotest.(check bool) "names arrived" true (Hashtbl.length names > 0)

let test_server_corruption_isolation () =
  let s = trace_bytes ~version:2 in
  let sock = temp_sock () in
  let srv = start_test_server sock in
  let good =
    List.init 4 (fun _ ->
        Thread.create (fun () -> push_bytes ~sock ~repeat:1 s) ())
  in
  let bad = Thread.create (fun () -> push_bytes ~flip:40 ~sock ~repeat:1 s) () in
  List.iter Thread.join (bad :: good);
  let stats = Server.stats srv in
  Alcotest.(check int) "all connections seen" 5 stats.Server.s_conns;
  Alcotest.(check int) "only good traces folded" 4 stats.Server.s_traces;
  let got, _ = Server.snapshot srv in
  Server.stop srv;
  (* The corrupt stream contributed nothing: the aggregate equals the
     merge of the four good streams exactly. *)
  Helpers.check_profiles_equal "corrupt stream isolated"
    (expected_merge ~copies:4) got;
  (* ...and its connection reports a terminal error. *)
  Alcotest.(check int) "one errored client" 1
    (List.length
       (List.filter
          (fun (c : Fleet.client) -> c.Fleet.error <> None)
          (Server.clients srv)))

(* A finished connection keeps its ledger row (STATS, fleet CSV) but
   not its decoder, driver or inbox slices: the server's reachable heap
   grows by far less per served connection than one decoder holds
   (~230k words for a 64 KiB frame; the 64 KiB reassembly buffer alone
   is 8k).  Each trace goes over its own connection, and the client's
   EOF comes after the server released its decode state. *)
let test_server_retains_ledger_only () =
  let s = trace_bytes ~version:2 in
  let sock = temp_sock () in
  let srv = start_test_server sock in
  let push n =
    for _ = 1 to n do
      push_bytes ~sock ~repeat:1 s
    done;
    Obj.reachable_words (Obj.repr srv)
  in
  let w2 = push 2 in
  let w22 = push 20 in
  let stats = Server.stats srv in
  Server.stop srv;
  Alcotest.(check int) "all traces folded" 22 stats.Server.s_traces;
  Alcotest.(check int) "ledger keeps every connection" 22 stats.Server.s_conns;
  Alcotest.(check int) "one fleet row per connection" 22
    (List.length (Server.clients srv));
  let per_conn = (w22 - w2) / 20 in
  if per_conn >= 2_000 then
    Alcotest.failf "server heap grows %d words per finished connection"
      per_conn

let test_server_salvage_keeps_stream () =
  let s = trace_bytes ~version:2 in
  let sock = temp_sock () in
  let srv = start_test_server ~salvage:true sock in
  push_bytes ~flip:40 ~sock ~repeat:1 s;
  push_bytes ~sock ~repeat:1 s;
  let stats = Server.stats srv in
  Server.stop srv;
  (* Under salvage the damaged chunk is dropped but both traces fold. *)
  Alcotest.(check int) "both traces folded" 2 stats.Server.s_traces;
  Alcotest.(check int) "chunk dropped" 1 stats.Server.s_drops

(* Concurrent SNAPSHOTs used to share one temp name, so one writer's
   rename could move another's file away mid-write (ERR Sys_error). *)
let test_server_concurrent_snapshots () =
  let s = trace_bytes ~version:2 in
  let dir = Filename.temp_file "aprof_snap_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let out = Filename.concat dir "snap.csv" in
  let sock = temp_sock () in
  let srv =
    Server.start
      {
        Server.default_config with
        unix_path = Some sock;
        jobs = 2;
        shards = 4;
        snapshot_profile = Some out;
      }
  in
  (* Writer [i] keeps its failures in slot [i]; read after the joins. *)
  let failures = Array.make 8 [] in
  let writers ~rounds =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            for _ = 1 to rounds do
              match Server.write_snapshot srv with
              | Ok () -> ()
              | Error e -> failures.(i) <- e :: failures.(i)
              | exception e ->
                failures.(i) <- Printexc.to_string e :: failures.(i)
            done)
          ())
  in
  (* Phase 1: snapshots race each other and the folds of live clients. *)
  let clients =
    List.init 4 (fun _ ->
        Thread.create (fun () -> push_bytes ~sock ~repeat:2 s) ())
  in
  let racing = writers ~rounds:25 in
  List.iter Thread.join (clients @ racing);
  (* Phase 2: every fold is in; racing writers all write the same state. *)
  List.iter Thread.join (writers ~rounds:5);
  (* Checked before [Server.stop], whose own final snapshot would
     overwrite the file. *)
  let expected, _ = Server.snapshot srv in
  Alcotest.(check (list string)) "every write_snapshot returned Ok" []
    (List.concat (Array.to_list failures));
  let leftovers =
    List.filter
      (fun f -> Helpers.contains ~sub:".tmp" f)
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check (list string)) "no temp files left" [] leftovers;
  let loaded =
    In_channel.with_open_bin out (fun ic ->
        match Aprof_core.Profile_io.load ic with
        | Ok (p, _names) -> p
        | Error e -> Alcotest.failf "snapshot does not load: %s" e)
  in
  Helpers.check_profiles_equal "final file = Server.snapshot" expected loaded;
  Helpers.check_profiles_equal "and = offline merge" (expected_merge ~copies:8)
    loaded;
  Server.stop srv;
  Sys.remove out;
  Sys.rmdir dir

let suite =
  [
    Alcotest.test_case "inbox: round trip and recycling" `Quick
      test_inbox_round_trip;
    Alcotest.test_case "inbox: empty queue accepts oversized slice" `Quick
      test_inbox_oversized_when_empty;
    Alcotest.test_case "inbox: push blocks over capacity" `Quick
      test_inbox_backpressure;
    Alcotest.test_case "inbox: close releases and neuters producers" `Quick
      test_inbox_close_neuters;
    Alcotest.test_case "net: every version and slice size = file reference"
      `Quick test_net_matches_reference;
    Alcotest.test_case "net: back-to-back traces on one connection" `Quick
      test_net_back_to_back_traces;
    Alcotest.test_case "net: indexed trace (footer) decodes" `Quick
      test_net_with_footer;
    Alcotest.test_case "net: truncation detected at close" `Quick
      test_net_truncation_detected;
    Alcotest.test_case "net: strict mode poisons on corruption" `Quick
      test_net_strict_fails_on_corruption;
    Alcotest.test_case "net: salvage drops the damaged chunk only" `Quick
      test_net_salvage_drops_chunk;
    Alcotest.test_case "net: a strict decoder holds one bounded batch" `Quick
      test_net_bounded_batch;
    Alcotest.test_case "shards: fold/snapshot = offline merge + partition"
      `Quick test_shard_fold_equals_merge;
    Alcotest.test_case "shards: concurrent folds against snapshots" `Quick
      test_shard_concurrent_folds;
    Alcotest.test_case "fleet: CSV shape, quoting, ranking" `Quick
      test_fleet_render;
    Alcotest.test_case "server: N live clients = offline merge" `Quick
      test_server_differential;
    Alcotest.test_case "server: corrupt stream never perturbs others" `Quick
      test_server_corruption_isolation;
    Alcotest.test_case "server: concurrent snapshots all land" `Quick
      test_server_concurrent_snapshots;
    Alcotest.test_case "server: salvage keeps a damaged stream alive" `Quick
      test_server_salvage_keeps_stream;
    Alcotest.test_case "server: finished connections keep a ledger row only"
      `Quick test_server_retains_ledger_only;
  ]
