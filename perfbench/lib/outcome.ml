(* What one workload run hands back to the report: the end-to-end
   figures, the per-layer figures, the correctness ledger and the
   spans.  [layers] holds whatever the run measured, keyed by the
   names of {!Catalog.per_layer}; a name the workload never touches is
   absent and reported as 0. *)

type t = {
  workload : string;
  program : string;
  scale : int;
  events : int;  (** events of one trace of this workload *)
  e2e : (string * float) list;
  layers : (string * float) list;
  ledger : Ledger.t;
  spans : Span.t;
}

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;  (** scratch files: traces, sockets, spans, rows *)
  aprof_exe : string;  (** the CLI binary, for the daemon *)
  wrong_reference : bool;  (** perturb every reference, to test the checks *)
  scale : int option;  (** override the workload's scale (tests) *)
  setup_reps : int;  (** set-up repetitions; the fastest is [setup_s] *)
}

let now = Unix.gettimeofday

(* Peak resident set of a process, from /proc; 0 where unavailable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some k -> k /. 1024. | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' s)

(* Median of one field over a list of per-iteration records. *)
let med f xs = Pct.median (List.map f xs)

(* The fastest pass of a run, for the timing of repeated work.  Other
   load on a shared host only ever slows a pass down, so the fastest
   pass is the one it disturbed least.  On a 2-core host, the fastest
   of a 30 s window's passes repeated within 3% from window to window
   where their median moved by 12%.  nan when there is no pass. *)
let fastest f = function
  | [] -> Float.nan
  | xs -> List.fold_left (fun a x -> Float.min a (f x)) Float.infinity xs

(* Set-up repeated at least [setup_reps] times and for at least 2 s;
   each result is paired with its duration.  A run calls it before its
   timed window and again after it.  A shared host runs fast and slow
   for seconds at a time, sometimes for longer than one batch of
   set-ups, so set-up is timed at two moments the window apart. *)
let repeat_setup (o : opts) f =
  let t0 = now () in
  let rec go i acc =
    if i >= o.setup_reps && (now () -. t0 >= 2. || i >= 4 * o.setup_reps) then List.rev acc
    else
      let t = now () in
      let v = f i in
      go (i + 1) ((v, now () -. t) :: acc)
  in
  go 0 []
