(* The benchmark's own checks: the tail-percentile rule, self time
   under nested and overlapping spans, the daemon's STATS line, the
   metric catalog, and that a wrong reference is caught. *)

open Perfbench_lib

let floats n = List.init n (fun i -> float_of_int (i + 1))

let tail n =
  match Pct.highest (List.rev (floats n)) with
  | None -> None
  | Some t -> Some (t.Pct.p, t.Pct.value, t.Pct.samples)

let percentile_rule () =
  let t = Alcotest.(option (triple (float 0.) (float 0.) int)) in
  Alcotest.check t "19 samples: none" None (tail 19);
  Alcotest.check t "20 samples: median" (Some (50., 10., 20)) (tail 20);
  Alcotest.check t "99 samples: still the median" (Some (50., 50., 99)) (tail 99);
  Alcotest.check t "100 samples: p90" (Some (90., 90., 100)) (tail 100);
  Alcotest.check t "999 samples: p90" (Some (90., 900., 999)) (tail 999);
  Alcotest.check t "1000 samples: p99" (Some (99., 990., 1000)) (tail 1000);
  Alcotest.check t "10000 samples: p99.9" (Some (99.9, 9990., 10000)) (tail 10000);
  Alcotest.(check (float 0.)) "median, even count" 2.5 (Pct.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check bool) "median of nothing is nan" true (Float.is_nan (Pct.median []))

let close = Alcotest.float 1e-9

let self_time_intervals () =
  let self children = Span.self_time ~start:0. ~stop:10. children in
  Alcotest.check close "no children" 10. (self []);
  Alcotest.check close "disjoint" 6. (self [ (1., 3.); (5., 7.) ]);
  Alcotest.check close "overlapping counted once" 6. (self [ (1., 3.); (2., 5.) ]);
  Alcotest.check close "contained child" 7. (self [ (1., 4.); (2., 3.) ]);
  Alcotest.check close "clipped to the parent" 7. (self [ (-2., 1.); (8., 12.) ]);
  Alcotest.check close "outside the parent" 10. (self [ (11., 12.) ]);
  Alcotest.check close "covering the parent" 0. (self [ (-1., 4.); (3., 11.) ])

let self_time_tree () =
  let sp = Span.create () in
  let add ?(parent = Span.none) name start stop words =
    Span.add sp ~name ~req:0 ~parent ~start ~stop ~words
  in
  let root = add "root" 0. 10. 100. in
  let a = add ~parent:root "a" 1. 4. 30. in
  ignore (add ~parent:a "a.inner" 2. 3. 10.);
  (* two concurrent children of the root, overlapping each other *)
  ignore (add ~parent:root "b" 5. 8. 20.);
  ignore (add ~parent:root "b" 6. 9. 20.);
  let tbl = Span.by_name sp ~keep:(fun _ -> true) in
  let self n = (Hashtbl.find tbl n).Span.self_s in
  let words n = (Hashtbl.find tbl n).Span.self_words in
  (* root: 10 - |[1,4] u [5,9]| = 10 - 7; grandchildren do not count *)
  Alcotest.check close "root self" 3. (self "root");
  Alcotest.check close "a self" 2. (self "a");
  Alcotest.check close "a.inner self" 1. (self "a.inner");
  Alcotest.check close "b summed over both spans" 6. (self "b");
  Alcotest.(check int) "b count" 2 (Hashtbl.find tbl "b").Span.count;
  Alcotest.check close "root self words" 30. (words "root");
  Alcotest.check close "a self words" 20. (words "a")

let stats_line () =
  let ok line =
    match Stats_line.parse line with
    | Ok t -> t
    | Error e -> Alcotest.failf "%S rejected: %s" line e
  in
  let t = ok "OK live=2 conns=17 traces=15 events=6101700 drops=0 folds=15\n" in
  Alcotest.(check (result int string)) "traces" (Ok 15) (Stats_line.field t "traces");
  Alcotest.(check (result int string)) "events" (Ok 6101700) (Stats_line.field t "events");
  Alcotest.(check bool) "missing field" true (Result.is_error (Stats_line.field t "stalls"));
  let t = ok "OK traces=3 stalls=4" in
  Alcotest.(check (result int string)) "new fields parse" (Ok 4) (Stats_line.field t "stalls");
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" bad) true
        (Result.is_error (Stats_line.parse bad)))
    [ ""; "OK"; "ERR unknown command"; "PONG"; "OK traces"; "OK traces=x"; "OK traces=-1"; "OK =3" ]

let catalog () =
  let names = List.map fst (Catalog.end_to_end @ Catalog.per_layer) in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      let ok =
        String.length n <= 64
        && String.for_all
             (fun c ->
               match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
             n
      in
      Alcotest.(check bool) (n ^ " is a valid metric name") true ok)
    names

(* A run against a deliberately wrong reference must fail checks. *)
let wrong_reference () =
  let run wrong_reference =
    let o =
      {
        Outcome.seed = 3;
        seconds = 0.;
        trace = false;
        out_dir = ".";
        aprof_exe = "";
        wrong_reference;
        scale = Some 300;
        setup_reps = 1;
      }
    in
    (Offline.run Offline.bs o).Outcome.ledger
  in
  let good = run false in
  Alcotest.(check int) "correct reference: no failures" 0 (Ledger.failed good);
  Alcotest.(check bool) "correct reference: checks ran" true (Ledger.attempted good > 0);
  let bad = run true in
  Alcotest.(check bool) "wrong reference: error_rate > 0" true (Ledger.error_rate bad > 0.)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "self time of intervals" `Quick self_time_intervals;
          Alcotest.test_case "self time of a span tree" `Quick self_time_tree;
          Alcotest.test_case "STATS line" `Quick stats_line;
          Alcotest.test_case "metric catalog" `Quick catalog;
          Alcotest.test_case "wrong reference" `Quick wrong_reference;
        ] );
    ]
