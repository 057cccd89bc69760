(* The layered analysis stack: penalized model selection, versioned
   model stores, and the cost-diff regression watch. *)

module Basis = Aprof_analysis.Fit_basis
module Solve = Aprof_analysis.Fit_solve
module Select = Aprof_analysis.Fit_select
module Store = Aprof_analysis.Model_store
module Diff = Aprof_analysis.Cost_diff
module Run_meta = Aprof_analysis.Run_meta
module Profile = Aprof_core.Profile
module Fit = Aprof_core.Fit

(* --- synthetic battery -------------------------------------------------- *)

let battery_classes : (Basis.cls * float array) list =
  [
    (Basis.Constant, [| 40. |]);
    (Basis.Plateau, [| 30.; 4.; 900. |]);
    (Basis.Logarithmic, [| 20.; 15. |]);
    (Basis.Linear, [| 40.; 3. |]);
    (Basis.Linearithmic, [| 30.; 2.; 0.7 |]);
    (Basis.Quadratic, [| 50.; 5.; 0.08 |]);
    (Basis.Quadratic_log, [| 40.; 2.; 0.05; 0.02 |]);
    (Basis.Cubic, [| 40.; 1.; 0.01; 0.002 |]);
  ]

let battery_sizes =
  let rec go acc n =
    if n > 20000. then List.rev acc else go (int_of_float n :: acc) (n *. 1.68)
  in
  go [] 8.

let plant rng cls coefs ~noise =
  List.map
    (fun n ->
      let y = Basis.eval cls ~coefs (float_of_int n) in
      let f = Float.max 0.05 (Aprof_util.Rng.gaussian rng ~mu:1.0 ~sigma:noise) in
      (n, y *. f))
    battery_sizes

(* The tentpole property: on noisy curves of known class, the penalized
   selection recovers the truth at least 90% of the time, while the
   legacy raw-r^2 ranking — monotone in model size under the nested
   designs — overfits upward on a substantial fraction.  Deterministic:
   fixed seeds, fixed sizes. *)
let test_battery_recovery () =
  let total = ref 0 and ok = ref 0 and r2_ok = ref 0 and overfit = ref 0 in
  List.iter
    (fun (cls, coefs) ->
      List.iter
        (fun noise ->
          for seed = 1 to 8 do
            let rng =
              Aprof_util.Rng.create
                ((seed * 7919) + int_of_float (noise *. 1000.))
            in
            let points = plant rng cls coefs ~noise in
            match Select.select ~bootstrap:0 ~seed points with
            | None -> Alcotest.failf "no selection for %s" (Basis.name cls)
            | Some sel ->
              incr total;
              if sel.Select.best.Solve.cls = cls then incr ok;
              (match sel.Select.by_r2 with
              | top :: _ ->
                if top.Solve.cls = cls then incr r2_ok
                else if Basis.order top.Solve.cls > Basis.order cls then
                  incr overfit
              | [] -> ())
          done)
        [ 0.05; 0.12 ])
    battery_classes;
  let frac a = float_of_int !a /. float_of_int !total in
  Alcotest.(check bool)
    (Printf.sprintf "penalized recovery >= 90%% (got %.1f%%)" (100. *. frac ok))
    true
    (frac ok >= 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "r2-only demonstrably worse (got %.1f%%)"
       (100. *. frac r2_ok))
    true
    (frac r2_ok < frac ok -. 0.15);
  Alcotest.(check bool)
    (Printf.sprintf "r2-only overfits upward (got %.1f%%)"
       (100. *. frac overfit))
    true
    (frac overfit >= 0.2)

let test_noiseless_ties_to_simplest () =
  let points = List.map (fun n -> (n, 40. +. (3. *. float_of_int n))) battery_sizes in
  match Select.select ~bootstrap:0 points with
  | None -> Alcotest.fail "no selection"
  | Some sel ->
    Alcotest.(check string) "exact linear data selects O(n)" "O(n)"
      (Basis.name sel.Select.best.Solve.cls)

let test_plateau_recovery () =
  let coefs = [| 30.; 4.; 900. |] in
  let points =
    List.map (fun n -> (n, Basis.eval Basis.Plateau ~coefs (float_of_int n)))
      battery_sizes
  in
  match Select.select ~bootstrap:0 points with
  | None -> Alcotest.fail "no selection"
  | Some sel ->
    Alcotest.(check string) "plateau class" "plateau"
      (Basis.name sel.Select.best.Solve.cls);
    let n0 = sel.Select.best.Solve.coefs.(2) in
    Alcotest.(check bool)
      (Printf.sprintf "breakpoint near 900 (got %.0f)" n0)
      true
      (n0 >= 300. && n0 <= 2600.)

let test_select_deterministic () =
  let rng = Aprof_util.Rng.create 3 in
  let points = plant rng Basis.Quadratic [| 50.; 5.; 0.08 |] ~noise:0.1 in
  match (Select.select ~seed:9 points, Select.select ~seed:9 points) with
  | Some a, Some b ->
    Alcotest.(check string) "same class"
      (Basis.name a.Select.best.Solve.cls)
      (Basis.name b.Select.best.Solve.cls);
    Alcotest.(check (float 0.)) "same confidence" a.Select.confidence
      b.Select.confidence;
    Alcotest.(check bool) "confidence in [0,1]" true
      (a.Select.confidence >= 0. && a.Select.confidence <= 1.)
  | _ -> Alcotest.fail "no selection"

let test_select_degenerate () =
  Alcotest.(check bool) "empty" true (Select.select [] = None);
  Alcotest.(check bool) "two distinct inputs" true
    (Select.select [ (1, 2.); (1, 3.); (2, 4.) ] = None);
  (* Non-finite costs are dropped, not propagated. *)
  match
    Select.select ~bootstrap:0
      [ (1, 1.); (2, 2.); (4, 4.); (8, 8.); (16, nan); (32, infinity) ]
  with
  | None -> Alcotest.fail "finite subset should still fit"
  | Some sel ->
    List.iter
      (fun (f, score) ->
        Alcotest.(check bool) "finite score" true (Float.is_finite score);
        Array.iter
          (fun c -> Alcotest.(check bool) "finite coef" true (Float.is_finite c))
          f.Solve.coefs)
      sel.Select.ranking

let test_exponent_interval () =
  let rng = Aprof_util.Rng.create 11 in
  let points =
    List.map
      (fun n ->
        let y = 2. *. (float_of_int n ** 1.5) in
        (n, y *. Aprof_util.Rng.gaussian rng ~mu:1.0 ~sigma:0.05))
      battery_sizes
  in
  match Select.select ~seed:4 points with
  | Some { Select.exponent = Some (k, lo, hi); _ } ->
    Alcotest.(check bool)
      (Printf.sprintf "interval brackets estimate (%.2f in %.2f..%.2f)" k lo hi)
      true
      (lo <= k && k <= hi);
    Alcotest.(check (float 0.15)) "exponent near 1.5" 1.5 k
  | _ -> Alcotest.fail "expected an exponent interval"

(* --- model store -------------------------------------------------------- *)

let meta ?(seed = 1) () =
  {
    Run_meta.workload = "synthetic";
    seed;
    scale = 100;
    threads = 2;
    scheduler = "round-robin(64)";
  }

let entry ?(routine = "r") ?(metric = `Drms) ?(cls = Basis.Linear)
    ?(coefs = [| 5.; 3. |]) ?(confidence = 0.95) ?(exponent = Some (1.0, 0.9, 1.1))
    () =
  {
    Store.routine;
    metric;
    cls;
    coefs;
    n_points = 12;
    r2 = 0.99;
    confidence;
    exponent;
  }

let check_entry_equal msg (a : Store.entry) (b : Store.entry) =
  Alcotest.(check string) (msg ^ ": routine") a.Store.routine b.Store.routine;
  Alcotest.(check string)
    (msg ^ ": metric")
    (Store.metric_name a.Store.metric)
    (Store.metric_name b.Store.metric);
  Alcotest.(check string)
    (msg ^ ": class")
    (Basis.name a.Store.cls) (Basis.name b.Store.cls);
  Alcotest.(check int) (msg ^ ": n_points") a.Store.n_points b.Store.n_points;
  Alcotest.(check (float 0.)) (msg ^ ": r2") a.Store.r2 b.Store.r2;
  Alcotest.(check (float 0.))
    (msg ^ ": confidence")
    a.Store.confidence b.Store.confidence;
  Alcotest.(check int)
    (msg ^ ": coef count")
    (Array.length a.Store.coefs)
    (Array.length b.Store.coefs);
  Array.iteri
    (fun i c -> Alcotest.(check (float 0.)) (msg ^ ": coef") c b.Store.coefs.(i))
    a.Store.coefs;
  match (a.Store.exponent, b.Store.exponent) with
  | None, None -> ()
  | Some (k, lo, hi), Some (k', lo', hi') ->
    Alcotest.(check (float 0.)) (msg ^ ": k") k k';
    Alcotest.(check (float 0.)) (msg ^ ": lo") lo lo';
    Alcotest.(check (float 0.)) (msg ^ ": hi") hi hi'
  | _ -> Alcotest.failf "%s: exponent presence differs" msg

let test_store_roundtrip () =
  let entries =
    [
      entry ~routine:"plain" ();
      entry ~routine:"name, with, commas" ~metric:`Rms ~cls:Basis.Plateau
        ~coefs:[| 1.; 2.; 300. |] ~exponent:None ();
      entry ~routine:"cubic one" ~cls:Basis.Cubic ~coefs:[| 1.; 0.; 0.; 2e-3 |]
        ();
    ]
  in
  let store = Store.create ~meta:(meta ()) entries in
  match Store.of_string (Store.to_string store) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok back ->
    Alcotest.(check int) "entry count" (List.length entries)
      (List.length back.Store.entries);
    List.iter2 (check_entry_equal "entry") store.Store.entries
      back.Store.entries;
    (match back.Store.meta with
    | Some m ->
      Alcotest.(check string) "meta workload" "synthetic" m.Run_meta.workload;
      Alcotest.(check string) "meta scheduler" "round-robin(64)"
        m.Run_meta.scheduler
    | None -> Alcotest.fail "meta lost");
    (* Entries come back sorted and findable. *)
    (match Store.find back ~routine:"name, with, commas" ~metric:`Rms with
    | Some e ->
      Alcotest.(check string) "comma name preserved" "name, with, commas"
        e.Store.routine
    | None -> Alcotest.fail "comma-named routine not found");
    Alcotest.(check (list string)) "routines sorted"
      [ "cubic one"; "name, with, commas"; "plain" ]
      (Store.routines back)

let test_store_versioning () =
  let dump = Store.to_string (Store.create [ entry () ]) in
  (* A future version is refused, not misparsed. *)
  let future =
    "costmodel,99\n"
    ^ String.concat "\n" (List.tl (String.split_on_char '\n' dump))
  in
  (match Store.of_string future with
  | Error e ->
    Alcotest.(check bool) "error names the version" true
      (Helpers.contains ~sub:"unsupported" e)
  | Ok _ -> Alcotest.fail "future store version accepted");
  (* A file without the header is not a store. *)
  (match Store.of_string "model,drms,linear,3,1,1,1,1,1,2,1,2,r\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "headerless store accepted");
  (* Unknown record kinds and malformed models are rejected with a line. *)
  List.iter
    (fun s ->
      match Store.of_string ("costmodel,1\n" ^ s) with
      | Error e ->
        Alcotest.(check bool) "mentions line" true
          (Helpers.contains ~sub:"line" e)
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [
      "bogus,1\n";
      "model,drms,linear,3\n";
      "model,drms,nosuch,3,1,1,1,1,1,2,1,2,r\n";
      "model,drms,linear,3,1,1,1,1,1,5,1,2,r\n";
    ]

(* --- cost diff ---------------------------------------------------------- *)

let sizes8 = [ 10; 20; 40; 80; 160; 320; 640; 1280 ]

let profile_with cost_fn =
  let p = Profile.create () in
  List.iter
    (fun n ->
      Profile.record_activation p ~tid:0 ~routine:1 ~rms:n ~drms:n
        ~cost:(cost_fn n))
    sizes8;
  p

let analyze_with ~seed p =
  Fit.analyze ~bootstrap:40 ~seed ~routine_name:(fun i -> Printf.sprintf "r%d" i)
    p

let test_planted_regression () =
  (* A routine that was linear in its drms and turned quadratic: the
     regression watch's reason to exist.  Real profiles, real analyze. *)
  let old_profile = profile_with (fun n -> 50 + (3 * n)) in
  let new_profile = profile_with (fun n -> 50 + (n * n / 10)) in
  let old_store =
    Store.create ~meta:(meta ~seed:1 ()) (analyze_with ~seed:1 old_profile)
  in
  let new_store =
    Store.create ~meta:(meta ~seed:2 ()) (analyze_with ~seed:2 new_profile)
  in
  match Diff.diff old_store new_store with
  | Error e -> Alcotest.failf "diff refused: %s" e
  | Ok report ->
    Alcotest.(check bool) "regression found" true (Diff.has_regression report);
    let class_regressions =
      List.filter
        (fun (f : Diff.finding) ->
          f.Diff.severity = Diff.Regression
          &&
          match f.Diff.change with
          | Diff.Class_change { old_cls; new_cls; _ } ->
            old_cls = Basis.Linear && new_cls = Basis.Quadratic
          | _ -> false)
        report.Diff.findings
    in
    Alcotest.(check bool) "linear -> quadratic class change" true
      (class_regressions <> []);
    List.iter
      (fun (f : Diff.finding) ->
        Alcotest.(check string) "on routine r1" "r1" f.Diff.routine)
      report.Diff.findings

let test_self_diff_clean () =
  let profile = profile_with (fun n -> 50 + (3 * n)) in
  let store =
    Store.create ~meta:(meta ~seed:1 ()) (analyze_with ~seed:1 profile)
  in
  match Diff.diff store store with
  | Error e -> Alcotest.failf "diff refused: %s" e
  | Ok report ->
    Alcotest.(check int) "no findings" 0 (List.length report.Diff.findings);
    Alcotest.(check bool) "clean" false (Diff.has_regression report);
    Alcotest.(check bool) "compared something" true (report.Diff.compared > 0)

(* The acceptance path on a real workload: the same seed produces the
   same profile, hence the same store, hence a clean diff. *)
let test_workload_self_diff_clean () =
  let run () =
    let spec = Option.get (Aprof_workloads.Registry.find "mysqlslap") in
    let result =
      Aprof_workloads.Workload.run_spec spec ~threads:3 ~scale:30 ~seed:42
    in
    let p = Aprof_core.Drms_profiler.create () in
    Aprof_core.Drms_profiler.run p result.Aprof_vm.Interp.trace;
    let profile = Aprof_core.Drms_profiler.finish p in
    let routine_name =
      Aprof_trace.Routine_table.name result.Aprof_vm.Interp.routines
    in
    Store.create
      ~meta:
        {
          Run_meta.workload = "mysqlslap";
          seed = 42;
          scale = 30;
          threads = 3;
          scheduler = "round-robin(64)";
        }
      (Fit.analyze ~bootstrap:60 ~seed:42 ~routine_name profile)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "store has models" true (a.Store.entries <> []);
  match Diff.diff a b with
  | Error e -> Alcotest.failf "diff refused: %s" e
  | Ok report ->
    Alcotest.(check int) "same-seed self-diff is clean" 0
      (List.length report.Diff.findings)

let test_confidence_gate () =
  let mk confidence cls =
    Store.create ~meta:(meta ())
      [ entry ~cls ~coefs:(if cls = Basis.Linear then [| 5.; 3. |] else [| 5.; 3.; 2. |]) ~confidence () ]
  in
  (* Below the gate: the change is reported, but as info, and does not
     fail the watch. *)
  (match Diff.diff (mk 0.5 Basis.Linear) (mk 0.9 Basis.Quadratic) with
  | Ok report ->
    Alcotest.(check bool) "not a regression" false (Diff.has_regression report);
    (match report.Diff.findings with
    | [ f ] ->
      Alcotest.(check bool) "severity info" true (f.Diff.severity = Diff.Info)
    | l -> Alcotest.failf "expected one finding, got %d" (List.length l))
  | Error e -> Alcotest.failf "diff refused: %s" e);
  (* At the gate: a real regression. *)
  match Diff.diff (mk 0.9 Basis.Linear) (mk 0.9 Basis.Quadratic) with
  | Ok report ->
    Alcotest.(check bool) "regression" true (Diff.has_regression report)
  | Error e -> Alcotest.failf "diff refused: %s" e

let test_slope_change () =
  let mk b =
    Store.create ~meta:(meta ()) [ entry ~coefs:[| 5.; b |] () ]
  in
  (match Diff.diff (mk 3.) (mk 9.) with
  | Ok report -> (
    match report.Diff.findings with
    | [ { Diff.severity = Diff.Regression; change = Diff.Slope_change s; _ } ] ->
      Alcotest.(check (float 1e-9)) "ratio" 3. s.ratio
    | _ -> Alcotest.fail "expected one slope regression")
  | Error e -> Alcotest.failf "diff refused: %s" e);
  (match Diff.diff (mk 9.) (mk 3.) with
  | Ok report -> (
    match report.Diff.findings with
    | [ { Diff.severity = Diff.Improvement; change = Diff.Slope_change _; _ } ]
      ->
      ()
    | _ -> Alcotest.fail "expected one slope improvement")
  | Error e -> Alcotest.failf "diff refused: %s" e);
  (* Within the gate: silence. *)
  match Diff.diff (mk 3.) (mk 4.) with
  | Ok report -> Alcotest.(check int) "no finding" 0 (List.length report.Diff.findings)
  | Error e -> Alcotest.failf "diff refused: %s" e

let test_divergence_change () =
  let mk drms_cls =
    Store.create ~meta:(meta ())
      [
        entry ~metric:`Drms ~cls:drms_cls
          ~coefs:(if drms_cls = Basis.Constant then [| 5. |] else [| 5.; 3. |])
          ();
        entry ~metric:`Rms ~cls:Basis.Linear ();
      ]
  in
  (* drms saturating under a growing rms is the paper's Fig. 4 shape;
     its appearance is a regression (a bounded working set started being
     re-read), its disappearance an improvement.  The class-change
     finding for drms rides along. *)
  match Diff.diff (mk Basis.Linear) (mk Basis.Constant) with
  | Error e -> Alcotest.failf "diff refused: %s" e
  | Ok report ->
    let div =
      List.filter
        (fun (f : Diff.finding) ->
          match f.Diff.change with
          | Diff.Divergence_change d ->
            Alcotest.(check bool) "now divergent" true d.now_divergent;
            Alcotest.(check bool) "metric-less finding" true (f.Diff.metric = None);
            true
          | _ -> false)
        report.Diff.findings
    in
    Alcotest.(check int) "one divergence finding" 1 (List.length div)

let test_meta_discipline () =
  let s1 = Store.create ~meta:(meta ()) [ entry () ] in
  let s2 =
    Store.create
      ~meta:{ (meta ()) with Run_meta.scale = 999 }
      [ entry () ]
  in
  (match Diff.diff s1 s2 with
  | Error e ->
    Alcotest.(check bool) "names the field" true
      (Helpers.contains ~sub:"scale" e)
  | Ok _ -> Alcotest.fail "incomparable scales diffed");
  (* Different seeds are comparable by design. *)
  (match
     Diff.diff s1 (Store.create ~meta:(meta ~seed:77 ()) [ entry () ])
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seed should not block a diff: %s" e);
  (* Missing metadata: refused by default, allowed explicitly. *)
  let bare = Store.create [ entry () ] in
  (match Diff.diff s1 bare with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing meta accepted by default");
  match Diff.diff ~require_meta:false s1 bare with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "require_meta:false still refused: %s" e

let test_only_in_lists () =
  let s_old =
    Store.create ~meta:(meta ()) [ entry ~routine:"gone" (); entry ~routine:"both" () ]
  in
  let s_new =
    Store.create ~meta:(meta ()) [ entry ~routine:"both" (); entry ~routine:"fresh" () ]
  in
  match Diff.diff s_old s_new with
  | Error e -> Alcotest.failf "diff refused: %s" e
  | Ok report ->
    Alcotest.(check (list string)) "only old" [ "gone" ] report.Diff.only_old;
    Alcotest.(check (list string)) "only new" [ "fresh" ] report.Diff.only_new;
    Alcotest.(check int) "compared the shared pair" 1 report.Diff.compared

(* --- run metadata ------------------------------------------------------- *)

let test_run_meta_fields () =
  let m =
    {
      Run_meta.workload = "mysqlslap";
      seed = 7;
      scale = 120;
      threads = 4;
      scheduler = "random(8-96)";
    }
  in
  (match Run_meta.of_fields (Run_meta.to_fields m) with
  | Ok back ->
    Alcotest.(check string) "workload" m.Run_meta.workload back.Run_meta.workload;
    Alcotest.(check int) "seed" m.Run_meta.seed back.Run_meta.seed;
    Alcotest.(check int) "scale" m.Run_meta.scale back.Run_meta.scale;
    Alcotest.(check int) "threads" m.Run_meta.threads back.Run_meta.threads;
    Alcotest.(check string) "scheduler" m.Run_meta.scheduler
      back.Run_meta.scheduler
  | Error e -> Alcotest.failf "round trip failed: %s" e);
  (* The scheduler field is last on the line: embedded commas survive. *)
  let weird = { m with Run_meta.scheduler = "custom,with,commas" } in
  (match Run_meta.of_fields (Run_meta.to_fields weird) with
  | Ok back ->
    Alcotest.(check string) "comma scheduler" "custom,with,commas"
      back.Run_meta.scheduler
  | Error e -> Alcotest.failf "comma round trip failed: %s" e);
  match Run_meta.of_fields [ "w"; "notanint"; "1"; "1"; "s" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad seed accepted"

let suite =
  [
    Alcotest.test_case "battery: penalized beats r2" `Quick
      test_battery_recovery;
    Alcotest.test_case "noiseless ties to simplest" `Quick
      test_noiseless_ties_to_simplest;
    Alcotest.test_case "plateau recovery" `Quick test_plateau_recovery;
    Alcotest.test_case "selection deterministic" `Quick test_select_deterministic;
    Alcotest.test_case "degenerate selection inputs" `Quick
      test_select_degenerate;
    Alcotest.test_case "exponent interval" `Quick test_exponent_interval;
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store versioning" `Quick test_store_versioning;
    Alcotest.test_case "planted regression flagged" `Quick
      test_planted_regression;
    Alcotest.test_case "self diff clean" `Quick test_self_diff_clean;
    Alcotest.test_case "workload self diff clean" `Quick
      test_workload_self_diff_clean;
    Alcotest.test_case "confidence gate" `Quick test_confidence_gate;
    Alcotest.test_case "slope change" `Quick test_slope_change;
    Alcotest.test_case "divergence change" `Quick test_divergence_change;
    Alcotest.test_case "meta discipline" `Quick test_meta_discipline;
    Alcotest.test_case "only-in lists" `Quick test_only_in_lists;
    Alcotest.test_case "run meta fields" `Quick test_run_meta_fields;
  ]
