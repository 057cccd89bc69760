(* The offline workloads: record -> replay -> fit, the path a user runs
   with [aprof record], [aprof replay] and [aprof fit].

   Set-up builds the workload's inputs from the seed and computes the
   reference: the drms profile of the in-memory run, where the VM
   feeds the profiler directly without a trace file.  It is repeated
   before the timed window and again after it (Outcome.repeat_setup);
   the fastest repetition is [setup_s], and all must agree.  The timed window then repeats iterations of

     record   Workload.run_batched -> Trace_codec.batch_writer (a file)
     replay   Trace_codec.batch_reader -> Drms_profiler.on_batch
     par      Replay_driver.replay ~jobs:nproc
     tools    Tool.replay_batches, once per Table 1 tool
     fit      Fit.analyze at the CLI's 120 bootstrap resamples
     save     Profile_io.save of the replayed profile

   The trace stages run [rounds] times per fit, so the workload whose
   fit dominates still measures them on a dozen passes.  A run makes at
   least [iterations] iterations (two when traced) and starts another
   only if it would end inside the window.  The first round of the
   window is a warm-up and is not counted.  Every output
   is checked against the reference.  The traced run
   alternates untraced and traced iterations: stage figures come from
   the untraced ones, layer self times from the traced ones. *)

module Registry = Aprof_workloads.Registry
module Workload = Aprof_workloads.Workload
module Codec = Aprof_trace.Trace_codec
module Stream = Aprof_trace.Trace_stream
module Batch = Aprof_trace.Event.Batch
module Drms = Aprof_core.Drms_profiler
module Profile = Aprof_core.Profile
module Profile_io = Aprof_core.Profile_io
module Store = Aprof_analysis.Model_store
module Basis = Aprof_analysis.Fit_basis

type config = {
  name : string;
  program : string;  (** registry workload *)
  threads : int;
  scale : int;
  format_version : int;  (** trace format written by record *)
  fit_check : bool;  (** check mysql_select's classes (paper Fig. 4) *)
  rounds : int;  (** passes of the trace stages per fit *)
  iterations : int;  (** the least number of fits of an untraced run *)
}

let bs =
  {
    name = "bs-offline";
    program = "blackscholes";
    threads = 4;
    scale = 400_000;
    format_version = 2;
    fit_check = false;
    rounds = 1;
    iterations = 2;
  }

let mysql =
  {
    name = "mysql-offline";
    program = "mysqlslap";
    threads = 4;
    scale = 1600;
    format_version = 3;
    fit_check = true;
    rounds = 12;
    iterations = 1;
  }

(* Fit runs as [aprof fit] does by default: 120 bootstrap resamples
   drawn from seed 42.  The workload seed changes the profile, not the
   resampling. *)
let bootstrap = 120
let bootstrap_seed = 42
let now = Outcome.now

let spec_of c =
  match Registry.find c.program with
  | Some s -> s
  | None -> failwith ("unknown workload " ^ c.program)

(* Profiles compare through their canonical CSV, which sorts every
   cell; routine names are left out because the in-memory run and a
   replay name routines from different tables. *)
let same_profile a b = Profile_io.to_string a = Profile_io.to_string b

(* A reference that is wrong on purpose: one extra activation. *)
let perturb p =
  let q = Profile.merge p (Profile.create ()) in
  Profile.record_activation q ~tid:0 ~routine:0 ~rms:1 ~drms:1 ~cost:1;
  q

type reference = { profile : Profile.t; ref_events : int }

let reference c ~scale ~seed =
  let w = (spec_of c).Workload.make ~threads:c.threads ~scale ~seed in
  let p = Drms.create () in
  let r = Workload.run_batched w ~seed ~tool:(fun _ -> Drms.on_batch p) in
  let profile = Drms.finish p in
  { profile; ref_events = r.Aprof_vm.Interp.events_emitted }

let record c ~sp ~req ~parent ~scale ~seed path =
  Span.within sp ~name:"record" ~req ~parent (fun rid ->
      Out_channel.with_open_bin path (fun oc ->
          let sink = ref Stream.batch_null_sink in
          let result =
            Span.within sp ~name:"vm" ~req ~parent:rid (fun vm ->
                let w = (spec_of c).Workload.make ~threads:c.threads ~scale ~seed in
                Workload.run_batched w ~seed ~tool:(fun routines ->
                    let s =
                      Codec.batch_writer ~format_version:c.format_version
                        ~routine_name:(Aprof_trace.Routine_table.name routines)
                        oc
                    in
                    sink := s;
                    fun b ->
                      let e = Span.enter sp ~name:"encode" ~req ~parent:vm in
                      s.Stream.emit_batch b;
                      Span.exit sp e))
          in
          Span.within sp ~name:"encode" ~req ~parent:rid (fun _ ->
              (!sink).Stream.close_batch ());
          (result.Aprof_vm.Interp.events_emitted, Int64.to_int (Out_channel.pos oc))))

(* Wrap a batch source so every pull is a span of its own. *)
let traced_source sp ~name ~req ~parent src () =
  let d = Span.enter sp ~name ~req ~parent in
  let b = src () in
  Span.exit sp d;
  b

let replay ~sp ~req ~parent path =
  Span.within sp ~name:"replay" ~req ~parent (fun rid ->
      In_channel.with_open_bin path (fun ic ->
          let names, src = Codec.batch_reader ic in
          let src = traced_source sp ~name:"decode" ~req ~parent:rid src in
          let p = Drms.create () in
          let rec loop n =
            match src () with
            | None -> n
            | Some b ->
              let d = Span.enter sp ~name:"drms" ~req ~parent:rid in
              Drms.on_batch p b;
              Span.exit sp d;
              loop (n + Batch.length b)
          in
          let n = loop 0 in
          let profile = Span.within sp ~name:"drms" ~req ~parent:rid (fun _ -> Drms.finish p) in
          (n, profile, names, Drms.space_words p, Drms.renumber_count p)))

let par_replay ~sp ~req ~parent ~jobs path =
  Span.within sp ~name:"par" ~req ~parent (fun _ ->
      Aprof_tools.Replay_driver.replay ~jobs ~profiler:`Drms ~now [ path ])

let tools ~sp ~req ~parent path =
  Span.within sp ~name:"tools" ~req ~parent (fun tid ->
      List.map
        (fun (f : Aprof_tools.Tool.factory) ->
          let name = f.Aprof_tools.Tool.tool_name in
          let t0 = now () in
          let n =
            Span.within sp ~name:("tool." ^ name) ~req ~parent:tid (fun me ->
                In_channel.with_open_bin path (fun ic ->
                    let _, src = Codec.batch_reader ic in
                    let src = traced_source sp ~name:"tool.decode" ~req ~parent:me src in
                    Aprof_tools.Tool.replay_batches (f.Aprof_tools.Tool.create ()) src))
          in
          (name, n, now () -. t0))
        (Aprof_tools.Harness.standard_factories ()))


(* mysql_select's cost is linear in its dynamic input and unrelated to
   its static one (paper Fig. 4).  drms must fit O(n).  On rms the
   routine either fits O(1) or shows fewer than the 3 distinct input
   sizes a fit needs — every activation reads the same few cells, so
   the rms plot is a vertical line of costs: flat input, no growth. *)
let fit_ok profile ~routine_name entries =
  let cls metric =
    List.find_map
      (fun (e : Store.entry) ->
        if e.Store.routine = "mysql_select" && e.Store.metric = metric then
          Some (Basis.name e.Store.cls)
        else None)
      entries
  in
  let rms_sizes =
    List.find_map
      (fun (id, (d : Profile.routine_data)) ->
        if routine_name id = "mysql_select" then Some (List.length d.Profile.rms_points)
        else None)
      (Profile.merge_threads profile)
  in
  let too_few_to_fit = match rms_sizes with Some k -> k < 3 | None -> false in
  cls `Drms = Some "O(n)" && (cls `Rms = Some "O(1)" || (cls `Rms = None && too_few_to_fit))

(* One pass over the trace file by each consumer: the four stages a
   trace goes through before fit.  Times are wall-clock seconds. *)
type round = {
  round_traced : bool;
  round_req : int;
  record_s : float;
  replay_s : float;
  par_s : float;
  tool_s : (string * float) list;
  bytes : int;
  chunks : int;
  space_words : int;
  renumbers : int;
}

let passes = 3 + List.length Catalog.tools
let round_s r = r.record_s +. r.replay_s +. r.par_s +. List.fold_left (fun a (_, s) -> a +. s) 0. r.tool_s

type iter = {
  traced : bool;  (** fit and save traced *)
  req : int;  (** request id of the fit and save spans *)
  rounds : round list;
  fit_s : float;
  save_s : float;
  csv_bytes : int;
  curves : int;
  fit_points : int;
  points : int;
  activations : int;
  minor_words : float;
  majors : int;
}

(* Fit and save spans get request ids apart from the rounds'. *)
let fit_req index = 1_000_000 + index

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let round (c : config) (o : Outcome.opts) ~check ~sp ~req ~traced ~scale ~expected ~ref_events
    ~jobs path =
  sp.Span.on <- traced;
  let root = Span.enter sp ~name:"round" ~req ~parent:Span.none in
  let (events, bytes), record_s =
    timed (fun () -> record c ~sp ~req ~parent:root ~scale ~seed:o.Outcome.seed path)
  in
  check (events = ref_events)
    (Printf.sprintf "record wrote %d events, the in-memory run %d" events ref_events);
  let (n, profile, names, space_words, renumbers), replay_s =
    timed (fun () -> replay ~sp ~req ~parent:root path)
  in
  check (n = events && same_profile profile expected)
    "1-worker replay profile differs from the in-memory drms profile";
  let par, par_s = timed (fun () -> par_replay ~sp ~req ~parent:root ~jobs path) in
  check
    ((not par.Aprof_tools.Replay_driver.failed)
    && same_profile par.Aprof_tools.Replay_driver.profile expected
    && same_profile par.Aprof_tools.Replay_driver.profile profile)
    (Printf.sprintf "%d-worker replay profile differs from the 1-worker one" jobs);
  let chunks =
    match Aprof_tools.Tool.Shards.of_file path with
    | Some s -> Array.length s.Aprof_tools.Tool.Shards.chunks
    | None -> 0
  in
  let tool_runs = tools ~sp ~req ~parent:root path in
  List.iter
    (fun (name, n, _) ->
      check (n = events) (Printf.sprintf "%s replayed %d of %d events" name n events))
    tool_runs;
  Span.exit sp root;
  sp.Span.on <- false;
  ( {
      round_traced = traced;
      round_req = req;
      record_s;
      replay_s;
      par_s;
      tool_s = List.map (fun (n, _, s) -> (n, s)) tool_runs;
      bytes;
      chunks;
      space_words;
      renumbers;
    },
    profile,
    names )

(* One iteration: [c.rounds] rounds of the trace stages, then fit and
   save on the last round's profile.  In the traced run every other
   round is traced, and so is every other iteration's fit, so traced
   and untraced work interleave under the same host conditions. *)
let iteration (c : config) (o : Outcome.opts) ~ledger ~sp ~scale ~expected ~ref_events ~jobs ~path
    ~index ~first_round =
  let check = Ledger.check ledger in
  let mw0 = Gc.minor_words () and mj0 = (Gc.quick_stat ()).Gc.major_collections in
  let results =
    List.init c.rounds (fun j ->
        let req = first_round + j in
        round c o ~check ~sp ~req ~traced:(o.Outcome.trace && req mod 2 = 1) ~scale ~expected
          ~ref_events ~jobs path)
  in
  let traced = o.Outcome.trace && index mod 2 = 1 in
  let req = fit_req index in
  sp.Span.on <- traced;
  let rounds = List.map (fun (r, _, _) -> r) results in
  let _, profile, names = List.nth results (c.rounds - 1) in
  let routine_name id =
    match Hashtbl.find_opt names id with
    | Some s -> s
    | None -> Printf.sprintf "routine_%d" id
  in
  (* Fit allocates heavily; start it from a compacted heap so its time
     does not depend on what the rounds before it left behind. *)
  Gc.compact ();
  let entries, fit_s =
    timed (fun () ->
        Span.within sp ~name:"fit" ~req ~parent:Span.none (fun _ ->
            Aprof_core.Fit.analyze ~bootstrap ~seed:bootstrap_seed ~routine_name profile))
  in
  if c.fit_check then
    check (fit_ok profile ~routine_name entries)
      "mysql_select is not O(n) on drms and flat on rms";
  let csv = path ^ ".csv" in
  let (), save_s =
    timed (fun () ->
        Span.within sp ~name:"profile_io.save" ~req ~parent:Span.none (fun _ ->
            Out_channel.with_open_text csv (fun oc ->
                Profile_io.save oc ~routine_name profile)))
  in
  let csv_bytes = (Unix.stat csv).Unix.st_size in
  check
    (match In_channel.with_open_text csv Profile_io.load with
    | Ok (p, _) -> same_profile p profile
    | Error _ -> false)
    "saved profile does not load back equal";
  sp.Span.on <- false;
  {
    traced;
    req;
    rounds;
    fit_s;
    save_s;
    csv_bytes;
    curves = List.length entries;
    fit_points = List.fold_left (fun a (e : Store.entry) -> a + e.Store.n_points) 0 entries;
    points =
      List.fold_left
        (fun a (_, (d : Profile.routine_data)) -> a + List.length d.Profile.drms_points)
        0 (Profile.merge_threads profile);
    activations = Profile.total_activations profile;
    minor_words = Gc.minor_words () -. mw0;
    majors = (Gc.quick_stat ()).Gc.major_collections - mj0;
  }

(* Per-layer figures of one traced round, from its spans.  [base] is
   the untraced round next to it, run under the same host conditions:
   the tracing overhead and the coverage of each stage's untraced time
   are taken against it. *)
let layer_figures sp ~events ~(base : round) (r : round) =
  let tbl = Span.by_name sp ~keep:(fun q -> q = r.round_req) in
  let self name = match Hashtbl.find_opt tbl name with Some l -> l.Span.self_s | None -> 0. in
  let wpe name =
    match Hashtbl.find_opt tbl name with
    | Some l -> l.Span.self_words /. float_of_int (max 1 events)
    | None -> 0.
  in
  let vm = self "vm" and encode = self "encode" in
  [
    ("vm.s", vm);
    ("vm.minor_words_per_event", wpe "vm");
    ("encode.s", encode);
    ("encode.minor_words_per_event", wpe "encode");
    ("encode.record_share", if vm +. encode > 0. then encode /. (vm +. encode) else 0.);
    ("decode.s", self "decode");
    ("decode.minor_words_per_event", wpe "decode");
    ("drms.s", self "drms");
    ("drms.minor_words_per_event", wpe "drms");
    ("par.s", self "par");
  ]
  @ List.concat_map
      (fun t ->
        [
          ("tool." ^ t ^ ".s", self ("tool." ^ t));
          ("tool." ^ t ^ ".minor_words_per_event", wpe ("tool." ^ t));
        ])
      Catalog.tools
  @ [
      ("trace.overhead", (round_s r /. round_s base) -. 1.);
      (* The share of the stage's untraced time that the layers' self
         times account for: work outside every layer span lowers it,
         tracing overhead raises it. *)
      ("coverage.record", (vm +. encode) /. base.record_s);
      ("coverage.replay", (self "decode" +. self "drms") /. base.replay_s);
    ]

let run (c : config) (o : Outcome.opts) =
  let ledger = Ledger.create () in
  let sp = Span.create () in
  let scale = Option.value o.Outcome.scale ~default:c.scale in
  let seed = o.Outcome.seed in
  let set_up () = Outcome.repeat_setup o (fun _ -> reference c ~scale ~seed) in
  let refs = set_up () in
  let r0 = fst (List.hd refs) in
  let expected = if o.Outcome.wrong_reference then perturb r0.profile else r0.profile in
  let jobs = Aprof_util.Par.available_parallelism () in
  let path =
    Filename.concat o.Outcome.out_dir (Printf.sprintf "%s-%d.atrc" c.name (Unix.getpid ()))
  in
  (* The traced run traces every other fit, so it needs two. *)
  let min_iterations = if o.Outcome.trace then max 2 c.iterations else c.iterations in
  let deadline = now () +. o.Outcome.seconds in
  (* Another iteration starts only if one as long as the last still
     ends inside the window. *)
  let rec loop index last_s acc =
    if index >= min_iterations && now () +. last_s > deadline then List.rev acc
    else
      let t0 = now () in
      let it =
        iteration c o ~ledger ~sp ~scale ~expected ~ref_events:r0.ref_events ~jobs ~path ~index
          ~first_round:(index * c.rounds)
      in
      loop (index + 1) (now () -. t0) (it :: acc)
  in
  let iters =
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ path; path ^ ".csv" ])
      (fun () -> loop 0 0. [])
  in
  (* Peak memory of the pipeline, read before the second set-up batch
     piles its allocations onto the heap the window left behind. *)
  let peak_mb = Outcome.peak_rss_mb "self" in
  let refs = refs @ set_up () in
  List.iter
    (fun (r, _) ->
      Ledger.check ledger
        (r.ref_events = r0.ref_events && same_profile r.profile r0.profile)
        "repeated in-memory runs disagree")
    (List.tl refs);
  let setup_s = Outcome.fastest snd refs in
  let events = r0.ref_events in
  let mev = float_of_int events /. 1e6 in
  let untraced = List.filter (fun i -> not i.traced) iters in
  let traced = List.filter (fun i -> i.traced) iters in
  (* The first round warms caches and the heap; it is not counted. *)
  let all_rounds = List.tl (List.concat_map (fun i -> i.rounds) iters) in
  let rounds = List.filter (fun r -> not r.round_traced) all_rounds in
  let traced_rounds = List.filter (fun r -> r.round_traced) all_rounds in
  let med = Outcome.med and fastest = Outcome.fastest in
  let fit_s = fastest (fun i -> i.fit_s) untraced in
  let record_s = fastest (fun r -> r.record_s) rounds in
  let replay_s = fastest (fun r -> r.replay_s) rounds in
  let par_s = fastest (fun r -> r.par_s) rounds in
  let tool_s t = fastest (fun r -> List.assoc t r.tool_s) rounds in
  let tools_s = List.fold_left (fun a t -> a +. tool_s t) 0. Catalog.tools in
  (* Each pass at its fastest: a spell of the host that slows one pass
     of a round does not decide the figure. *)
  let passes_s = record_s +. replay_s +. par_s +. tools_s in
  let pipeline = record_s +. replay_s +. fit_s in
  let e2e =
    [
      ("setup_s", setup_s);
      ("throughput_mev_s", mev *. float_of_int passes /. passes_s);
      ("peak_mem_mb", peak_mb);
    ]
  in
  let per_event f = med (fun i -> f i /. float_of_int events) untraced in
  let stage =
    [
      ("record_mev_s", mev /. record_s);
      ("replay_mev_s", mev /. replay_s);
      ("replay_par_mev_s", mev /. par_s);
      ( "tools_mev_s",
        mev *. float_of_int (List.length Catalog.tools) /. tools_s );
      ("fit_s", fit_s);
      ("pipeline_s", pipeline);
      ("fit.pipeline_share", fit_s /. pipeline);
      ("par.speedup", replay_s /. par_s);
      ("par.chunks", med (fun r -> float_of_int r.chunks) rounds);
      ("vm.events", float_of_int events);
      ("encode.bytes_per_event", med (fun r -> float_of_int r.bytes) rounds /. float_of_int events);
      ("drms.space_words", med (fun r -> float_of_int r.space_words) rounds);
      ("drms.renumber_count", med (fun r -> float_of_int r.renumbers) rounds);
      ("profile.activations", med (fun i -> float_of_int i.activations) untraced);
      ("profile.points", med (fun i -> float_of_int i.points) untraced);
      ("fit.curves", med (fun i -> float_of_int i.curves) untraced);
      ("fit.points", med (fun i -> float_of_int i.fit_points) untraced);
      ( "fit.ms_per_curve",
        fastest (fun i -> if i.curves = 0 then 0. else i.fit_s *. 1000. /. float_of_int i.curves) untraced );
      ("profile_io.save_ms", fastest (fun i -> i.save_s *. 1000.) untraced);
      ("profile_io.bytes", med (fun i -> float_of_int i.csv_bytes) untraced);
      ("gc.minor_words_per_event", per_event (fun i -> i.minor_words));
      ("gc.major_collections", med (fun i -> float_of_int i.majors) untraced);
      ("iterations", float_of_int (List.length untraced));
      ("rounds", float_of_int (List.length rounds));
    ]
  in
  (* Each traced round is paired with the untraced round before it, or
     after it when the one before is the warm-up; each traced fit with
     the untraced fit of the iteration before. *)
  let untraced_round req = List.find_opt (fun r -> r.round_req = req) rounds in
  let pairs =
    List.filter_map
      (fun r ->
        match untraced_round (r.round_req - 1) with
        | Some base -> Some (r, base)
        | None -> Option.map (fun base -> (r, base)) (untraced_round (r.round_req + 1)))
      traced_rounds
  in
  let fit_cover =
    List.filter_map
      (fun i ->
        let tbl = Span.by_name sp ~keep:(fun q -> q = i.req) in
        let base = List.find_opt (fun u -> u.req = i.req - 1) untraced in
        match (Hashtbl.find_opt tbl "fit", base) with
        | Some l, Some base -> Some (l.Span.self_s /. base.fit_s)
        | _ -> None)
      traced
  in
  let layers =
    match pairs with
    | [] -> []
    | _ ->
      let figs = List.map (fun (r, base) -> layer_figures sp ~events ~base r) pairs in
      let fig name = Pct.median (List.map (fun f -> List.assoc name f) figs) in
      List.map (fun (n, _) -> (n, fig n)) (List.hd figs)
      @ [ ("coverage.fit", Pct.median fit_cover) ]
  in
  {
    Outcome.workload = c.name;
    program = c.program;
    scale;
    events;
    e2e;
    layers = stage @ layers @ [ ("error_rate", Ledger.error_rate ledger) ];
    ledger;
    spans = sp;
  }
