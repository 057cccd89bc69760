(* Shared helpers for the test suites. *)

module Event = Aprof_trace.Event
module Trace = Aprof_trace.Trace
module Vec = Aprof_util.Vec
module Profile = Aprof_core.Profile

(* [contains ~sub s] is true when [sub] occurs in [s]. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let run_drms ?overflow_limit ?mode trace =
  let p = Aprof_core.Drms_profiler.create ?overflow_limit ?mode () in
  Aprof_core.Drms_profiler.run p trace;
  Aprof_core.Drms_profiler.finish p

let run_naive trace =
  let p = Aprof_core.Naive_drms.create () in
  Aprof_core.Naive_drms.run p trace;
  Aprof_core.Naive_drms.finish p

let run_rms trace =
  let p = Aprof_core.Rms_profiler.create () in
  Aprof_core.Rms_profiler.run p trace;
  Aprof_core.Rms_profiler.finish p

(* Sum of input sizes over all activations of [routine] in [profile]:
   with one activation per distinct input this pins exact values. *)
let drms_values profile ~tid ~routine =
  match Profile.data profile { Profile.tid; routine } with
  | None -> []
  | Some d ->
    List.concat_map
      (fun (p : Profile.point) -> List.init p.Profile.calls (fun _ -> p.Profile.input))
      d.Profile.drms_points

let rms_values profile ~tid ~routine =
  match Profile.data profile { Profile.tid; routine } with
  | None -> []
  | Some d ->
    List.concat_map
      (fun (p : Profile.point) -> List.init p.Profile.calls (fun _ -> p.Profile.input))
      d.Profile.rms_points

let routine_id table name =
  match Aprof_trace.Routine_table.find table name with
  | Some id -> id
  | None -> Alcotest.failf "routine %s not interned" name

(* Activation multiset (rms, drms) per (tid, routine), for differential
   tests: profiles must agree exactly.  Costs are compared separately
   because the two implementations share Cost_model. *)
let signature profile =
  Profile.keys profile
  |> List.filter_map (fun k ->
         match Profile.data profile k with
         | None -> None
         | Some d ->
           let drms =
             List.map
               (fun (p : Profile.point) -> (p.Profile.input, p.Profile.calls, p.Profile.max_cost))
               d.Profile.drms_points
           in
           let rms =
             List.map
               (fun (p : Profile.point) -> (p.Profile.input, p.Profile.calls, p.Profile.max_cost))
               d.Profile.rms_points
           in
           Some ((k.Profile.tid, k.Profile.routine), (drms, rms, d.Profile.activations)))
  |> List.sort compare

let ops_signature profile =
  Profile.keys profile
  |> List.filter_map (fun k ->
         match Profile.data profile k with
         | None -> None
         | Some d ->
           Some
             ( (k.Profile.tid, k.Profile.routine),
               ( d.Profile.first_read_ops,
                 d.Profile.induced_thread_ops,
                 d.Profile.induced_external_ops ) ))
  |> List.sort compare

let check_profiles_equal msg p1 p2 =
  Alcotest.(check (list (pair (pair int int) (triple (list (triple int int int)) (list (triple int int int)) int))))
    msg (signature p1) (signature p2)

let check_ops_equal msg p1 p2 =
  Alcotest.(check (list (pair (pair int int) (triple int int int))))
    msg (ops_signature p1) (ops_signature p2)

let run_workload ?scheduler ?(seed = 7) w =
  Aprof_workloads.Workload.run ?scheduler w ~seed
