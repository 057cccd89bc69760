(* The serve-mysql workload: a mysqlslap v2 trace streamed to an
   [aprof serve -o -j nproc] child process by [nproc] closed-loop
   client threads — one ingest worker per client.

   Each client pushes the trace on a fresh connection, half-closes it
   and waits for the server's EOF — the daemon closes an ingest
   connection only once its stream is fully folded — then sends one
   SNAPSHOT, which makes the daemon write the profile CSV.  At most
   [nproc] connections are open at any time.  Folds (writes into the
   shard accumulators) thus run beside snapshots (reads of them).
   SNAPSHOTs themselves are sent one at a time, because the daemon's
   concurrent SNAPSHOTs race on one temporary file (see [round]).

   Set-up records the trace, replays it offline into the reference
   profile, starts the daemon, waits for PING and pushes one warm-up
   trace; it is timed before the window and again after it.  The window
   is a sequence of rounds, each on a fresh, warmed daemon serving
   [per_round] copies of a trace of its own (see [round_seed]), which
   is recorded before the round's clock starts.  After each round the
   benchmark checks that STATS counts every trace pushed and that the
   final snapshot equals the offline merge of that many copies of the
   round's reference. *)

module Profile = Aprof_core.Profile
module Profile_io = Aprof_core.Profile_io

let name = "serve-mysql"
let program = "mysqlslap"
let scale = 1600

(* Traces per round: a 30 s window holds about ten rounds and pools
   several hundred samples, and a daemon that has served 40
   connections stays near 120 MB. *)
let per_round = 40
let now = Outcome.now

(* The trace is recorded in format v2, the default, through the same
   record and replay calls as the offline workloads. *)
let trace_config scale =
  {
    Offline.name;
    program;
    threads = 4;
    scale;
    format_version = 2;
    fit_check = false;
    rounds = 1;
    iterations = 1;
  }

(* ----- the wire side ---------------------------------------------------- *)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

let read_all fd =
  let buf = Buffer.create 64 in
  let chunk = Bytes.create 1024 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      loop ()
  in
  loop ();
  Buffer.contents buf

(* One control command on its own connection; the reply ends at EOF. *)
let control sock cmd =
  let fd = connect sock in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.of_string (cmd ^ "\n") in
      ignore (Unix.write fd b 0 (Bytes.length b));
      read_all fd)

type push = { trace_s : float; write_s : float; drain_s : float }

(* Push one trace the way [aprof push] does: write it all, half-close,
   read until the server's EOF. *)
let push sp ~req sock bytes =
  let t0 = now () in
  let root = Span.enter sp ~name:"trace" ~req ~parent:Span.none in
  let fd = Span.within sp ~name:"client.connect" ~req ~parent:root (fun _ -> connect sock) in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = Bytes.length bytes in
      let write_s = ref 0. in
      let rec write o =
        if o < n then begin
          let w0 = now () in
          let s = Span.enter sp ~name:"client.write" ~req ~parent:root in
          let k = Unix.write fd bytes o (min (n - o) (64 * 1024)) in
          Span.exit sp s;
          write_s := !write_s +. (now () -. w0);
          if k = 0 then failwith "socket closed";
          write (o + k)
        end
      in
      write 0;
      let d0 = now () in
      Span.within sp ~name:"client.drain" ~req ~parent:root (fun _ ->
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          ignore (read_all fd));
      let t1 = now () in
      Span.exit sp root;
      { trace_s = t1 -. t0; write_s = !write_s; drain_s = t1 -. d0 })

(* ----- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; sock : string; csv : string }

let start_daemon (o : Outcome.opts) ~tag =
  let base = Filename.concat o.Outcome.out_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) tag) in
  let sock = base ^ ".sock" and csv = base ^ ".csv" in
  let log = Unix.openfile (base ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process o.Outcome.aprof_exe
      [| o.Outcome.aprof_exe; "serve"; "--unix"; sock; "-o"; csv; "-q"; "-j"; string_of_int (Aprof_util.Par.available_parallelism ()) |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  let deadline = now () +. 30. in
  let rec wait () =
    match control sock "PING" with
    | "PONG\n" -> ()
    | r -> failwith ("daemon answered PING with " ^ String.escaped r)
    | exception Unix.Unix_error _ when now () < deadline ->
      Unix.sleepf 0.005;
      wait ()
  in
  match wait () with
  | () -> { pid; sock; csv }
  | exception e ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    raise e

(* STOP, then reap the child; a daemon that does not stop is killed. *)
let stop_daemon d =
  (try ignore (control d.sock "STOP") with Unix.Unix_error _ -> ());
  let deadline = now () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ d.sock; d.csv; Filename.chop_suffix d.csv ".csv" ^ ".log" ]

(* ----- the run ------------------------------------------------------------ *)
type input = { bytes : Bytes.t; events : int; reference : Profile.t }

(* A trace recorded from [seed] and its reference profile, replayed
   offline. *)
let make_input (o : Outcome.opts) ~scale ~seed =
  let path = Filename.concat o.Outcome.out_dir (Printf.sprintf "serve-%d.atrc" (Unix.getpid ())) in
  let off = Span.create () in
  let events, _ =
    Offline.record (trace_config scale) ~sp:off ~req:0 ~parent:Span.none ~scale ~seed path
  in
  let bytes = In_channel.with_open_bin path In_channel.input_all |> Bytes.unsafe_of_string in
  let _, reference, _, _, _ = Offline.replay ~sp:off ~req:0 ~parent:Span.none path in
  Sys.remove path;
  { bytes; events; reference }

(* Round [i] pushes a trace of its own, recorded from a seed derived
   from the run's.  How much memory the daemon keeps per served trace
   steps with the trace's content: a round's peak RSS repeats within 3%
   for one trace and lands 13-27% apart for traces of different seeds.
   A run's mean over rounds of different traces does not hinge on one
   of them. *)
let round_seed seed i = if i = 0 then seed else Hashtbl.hash (seed, i)

let warm_daemon o ~tag bytes =
  let d = start_daemon o ~tag in
  let off = Span.create () in
  (match push off ~req:0 d.sock bytes with
  | _ -> ignore (control d.sock "SNAPSHOT")
  | exception e ->
    stop_daemon d;
    raise e);
  d

(* Set-up, repeated for [setup_s]: record the run seed's trace, replay
   it into the reference profile, start a daemon and push one warm-up
   trace and snapshot through it. *)
let setup (o : Outcome.opts) ~scale ~tag =
  let input = make_input o ~scale ~seed:o.Outcome.seed in
  stop_daemon (warm_daemon o ~tag input.bytes);
  input

type sample = { p : push; snapshot_s : float; traced : bool }

type round = {
  samples : sample list;
  events : int;  (** of the round's trace *)
  seconds : float;  (** first connect to the last client's return *)
  peak_mb : float;
  stats : (string * int) list;
  snapshot : Profile.t option;  (** the round's final snapshot *)
}

(* One round: a fresh warmed-up daemon, [per_round] traces pushed by
   [clients] closed-loop threads, then the checks and the daemon's
   peak RSS.  A fixed trace count per round keeps the daemon's memory,
   which grows with every connection it has served, comparable across
   runs.  The traced run traces every other trace, so traced and
   untraced pushes share the same daemon and host conditions. *)
let round (o : Outcome.opts) ~ledger ~sp ~input ~clients ~req0 ~tag =
  let d = warm_daemon o ~tag input.bytes in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let off = Span.create () in
      let next = Atomic.make 0 in
      let lock = Mutex.create () in
      (* At most one SNAPSHOT in flight: the daemon writes every
         snapshot through the same [<out>.tmp] and renames it, so two
         concurrent SNAPSHOTs race on that file and one may answer
         [ERR Sys_error].  The wait for this lock is not timed. *)
      let snap_lock = Mutex.create () in
      let samples = ref [] in
      let client () =
        let rec loop () =
          let k = Atomic.fetch_and_add next 1 in
          if k < per_round then begin
            let req = req0 + k in
            let traced = o.Outcome.trace && req mod 2 = 1 in
            let r = if traced then sp else off in
            (match push r ~req d.sock input.bytes with
            | exception e -> Ledger.check ledger false ("push failed: " ^ Printexc.to_string e)
            | p ->
              Ledger.check ledger true "";
              Mutex.lock snap_lock;
              let q0 = now () in
              let reply =
                Span.within r ~name:"snapshot" ~req ~parent:Span.none (fun _ ->
                    try control d.sock "SNAPSHOT" with e -> Printexc.to_string e)
              in
              let snapshot_s = now () -. q0 in
              Mutex.unlock snap_lock;
              Ledger.check ledger (reply = "OK\n") ("SNAPSHOT answered " ^ String.escaped reply);
              Mutex.lock lock;
              samples := { p; snapshot_s; traced } :: !samples;
              Mutex.unlock lock);
            loop ()
          end
        in
        loop ()
      in
      let t0 = now () in
      List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
      let seconds = now () -. t0 in
      let pushed = List.length !samples + 1 (* the warm-up trace *) in
      (* STATS must count every trace pushed, and the last snapshot must
         equal the offline merge of that many copies of the reference. *)
      let stats =
        match Stats_line.parse (control d.sock "STATS") with
        | Ok st -> st
        | Error e ->
          Ledger.check ledger false e;
          []
      in
      let traces = Result.value (Stats_line.field stats "traces") ~default:(-1) in
      Ledger.check ledger (traces = pushed)
        (Printf.sprintf "STATS traces=%d, %d traces pushed" traces pushed);
      Ledger.check ledger (control d.sock "SNAPSHOT" = "OK\n") "final SNAPSHOT failed";
      let snapshot =
        match In_channel.with_open_text d.csv Profile_io.load with
        | Ok (p, _) -> Some p
        | Error _ | (exception Sys_error _) -> None
      in
      let reference =
        if o.Outcome.wrong_reference then Offline.perturb input.reference else input.reference
      in
      let expected = Profile.create () in
      for _ = 1 to pushed do
        Profile.merge_into ~into:expected reference
      done;
      Ledger.check ledger
        (match snapshot with Some p -> Offline.same_profile p expected | None -> false)
        "final snapshot differs from the offline merge of the pushed traces";
      {
        samples = !samples;
        events = input.events;
        seconds;
        peak_mb = Outcome.peak_rss_mb (string_of_int d.pid);
        stats;
        snapshot;
      })

(* What a SNAPSHOT costs the daemon in Profile_io.save, measured on a
   final snapshot's profile in this process. *)
let save_cost dir p =
  let tmp = Filename.concat dir (Printf.sprintf "serve-%d.save.csv" (Unix.getpid ())) in
  let times =
    List.init 5 (fun _ ->
        let t0 = now () in
        Out_channel.with_open_text tmp (fun oc -> Profile_io.save oc p);
        (now () -. t0) *. 1000.)
  in
  let size = (Unix.stat tmp).Unix.st_size in
  Sys.remove tmp;
  (Outcome.fastest Fun.id times, float_of_int size)

let run (o : Outcome.opts) =
  let ledger = Ledger.create () in
  let sp = Span.create () in
  sp.Span.on <- true;
  let scale = Option.value o.Outcome.scale ~default:scale in
  let set_up () = Outcome.repeat_setup o (fun tag -> setup o ~scale ~tag) in
  let setups = set_up () in
  let input = fst (List.hd setups) in
  let clients = Aprof_util.Par.available_parallelism () in
  let deadline = now () +. o.Outcome.seconds in
  let rec loop i acc =
    if i >= 1 && now () >= deadline then List.rev acc
    else
      let input =
        if i = 0 then input else make_input o ~scale ~seed:(round_seed o.Outcome.seed i)
      in
      let r = round o ~ledger ~sp ~input ~clients ~req0:(i * per_round) ~tag:(1000 + i) in
      loop (i + 1) (r :: acc)
  in
  let rounds = loop 0 [] in
  let setup_s = Outcome.fastest snd (setups @ set_up ()) in
  let all = List.concat_map (fun r -> r.samples) rounds in
  let untraced = List.filter (fun x -> not x.traced) all in
  let traced = List.filter (fun x -> x.traced) all in
  let ms f xs = List.map (fun x -> f x *. 1000.) xs in
  let trace_ms = ms (fun x -> x.p.trace_s) untraced in
  let snap_ms = ms (fun x -> x.snapshot_s) untraced in
  (* A round is one sample of the daemon's speed, and the fastest round
     is the one other load on the host disturbed least (Outcome.fastest). *)
  let mev =
    1. /. Outcome.fastest
            (fun r -> r.seconds *. 1e6 /. float_of_int (List.length r.samples * r.events))
            rounds
  in
  let p50 = Pct.percentile trace_ms 50. in
  let last = List.nth rounds (List.length rounds - 1) in
  let stat k = float_of_int (Result.value (Stats_line.field last.stats k) ~default:0) in
  let save_ms, csv_bytes =
    match last.snapshot with Some p -> save_cost o.Outcome.out_dir p | None -> (0., 0.)
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("throughput_mev_s", mev);
      (* The mean, not the median: a round's peak lands on one of a few
         heap sizes, and the median of a few rounds jumps between them. *)
      ("peak_mem_mb", Aprof_util.Stats.mean (List.map (fun r -> r.peak_mb) rounds));
    ]
  in
  let stage =
    [
      ("ingest_mev_s", mev);
      ("trace_ms.p50", p50);
      ("trace_ms.p90", Pct.percentile trace_ms 90.);
      ("snapshot_ms.p50", Pct.percentile snap_ms 50.);
      ("snapshot_ms.p90", Pct.percentile snap_ms 90.);
      (* STATS of the last round's daemon *)
      ("serve.traces", stat "traces");
      ("serve.events", stat "events");
      ("serve.folds", stat "folds");
      ("serve.drops", stat "drops");
      ("client.write_ms", Pct.median (ms (fun x -> x.p.write_s) untraced));
      ("client.drain_ms", Pct.median (ms (fun x -> x.p.drain_s) untraced));
      ("profile_io.save_ms", save_ms);
      ("profile_io.bytes", csv_bytes);
      ("vm.events", float_of_int input.events);
      ("clients", float_of_int clients);
      ("rounds", float_of_int (List.length rounds));
      ("samples", float_of_int (List.length trace_ms));
    ]
  in
  let layers =
    match traced with
    | [] -> []
    | _ ->
      (* A trace's layers are its connect, writes and drain.  Their
         mean self time per traced trace, over the mean untraced trace
         time, is the share of the untraced time they account for. *)
      let tbl = Span.by_name sp ~keep:(fun _ -> true) in
      let self n = match Hashtbl.find_opt tbl n with Some l -> l.Span.self_s | None -> 0. in
      let traced_ms = ms (fun x -> x.p.trace_s) traced in
      let layers = self "client.connect" +. self "client.write" +. self "client.drain" in
      [
        ("trace.overhead", Pct.median traced_ms /. p50 -. 1.);
        ( "coverage.serve",
          layers *. 1000. /. float_of_int (List.length traced)
          /. Aprof_util.Stats.mean trace_ms );
      ]
  in
  List.iter
    (fun (n, t) -> Printf.printf "%s tail: %s\n" n (Pct.tail_to_string t))
    [ ("trace_ms", Pct.highest trace_ms); ("snapshot_ms", Pct.highest snap_ms) ];
  {
    Outcome.workload = name;
    program;
    scale;
    events = input.events;
    e2e;
    layers = stage @ layers @ [ ("error_rate", Ledger.error_rate ledger) ];
    ledger;
    spans = sp;
  }
