(* Printing a run: the provenance row, every metric by name and unit,
   the traced run's per-layer table, the row file, and the one-line
   JSON result that closes standard output. *)

type provenance = { host_cores : int; ocaml : string; git_sha : string }

let provenance ~git_sha =
  {
    host_cores = Aprof_util.Par.available_parallelism ();
    ocaml = Sys.ocaml_version;
    git_sha;
  }

let unit_of name =
  match List.assoc_opt name Catalog.end_to_end with
  | Some u -> u
  | None -> Option.value (List.assoc_opt name Catalog.per_layer) ~default:"-"

let host_label p = if p.host_cores <= 1 then "single-core" else "multi-core"

let provenance_fields p (o : Outcome.opts) (r : Outcome.t) =
  [
    ("workload", Json.Str r.Outcome.workload);
    ("program", Json.Str r.Outcome.program);
    ("seed", Json.Int o.Outcome.seed);
    ("scale", Json.Int r.Outcome.scale);
    ("events", Json.Int r.Outcome.events);
    ("host_cores", Json.Int p.host_cores);
    ("host", Json.Str (host_label p));
    ("ocaml", Json.Str p.ocaml);
    ("git_sha", Json.Str p.git_sha);
    ("traced", Json.Bool o.Outcome.trace);
  ]

(* The traced run's span table: per span name, self time and self
   minor words summed over every traced pass, the share of all traced
   self time, and the span count.  Words are per event of one trace,
   so a layer that ran on k passes shows k times its per-pass figure. *)
let layer_table (r : Outcome.t) =
  let tbl = Span.by_name r.Outcome.spans ~keep:(fun _ -> true) in
  let rows = Hashtbl.fold (fun n l acc -> (n, l) :: acc) tbl [] in
  let rows = List.sort (fun (_, a) (_, b) -> Float.compare b.Span.self_s a.Span.self_s) rows in
  let total = List.fold_left (fun a (_, l) -> a +. l.Span.self_s) 0. rows in
  Printf.printf "%-22s %10s %7s %8s %12s\n" "span" "self_s" "share" "count" "sum_words/ev";
  List.iter
    (fun (n, l) ->
      Printf.printf "%-22s %10.4f %6.1f%% %8d %12.3f\n" n l.Span.self_s
        (100. *. l.Span.self_s /. Float.max total 1e-9)
        l.Span.count
        (l.Span.self_words /. float_of_int (max 1 r.Outcome.events)))
    rows

let print_row p (o : Outcome.opts) (r : Outcome.t) =
  Printf.printf "row %s seed=%d scale=%d events=%d host_cores=%d (%s) ocaml=%s git_sha=%s\n"
    r.Outcome.workload o.Outcome.seed r.Outcome.scale r.Outcome.events p.host_cores
    (host_label p) p.ocaml p.git_sha;
  let line (n, v) = Printf.printf "  %-34s %16.6f %s\n" n v (unit_of n) in
  List.iter line r.Outcome.e2e;
  List.iter line r.Outcome.layers;
  let l = r.Outcome.ledger in
  Printf.printf "  checks: %d attempted, %d failed\n" (Ledger.attempted l) (Ledger.failed l);
  List.iter (fun m -> Printf.printf "  FAILED: %s\n" m) (Ledger.reasons l)

let metrics_json names (values : (string * float) list) =
  Json.Obj
    (List.map
       (fun (n, u) ->
         let v = Option.value (List.assoc_opt n values) ~default:0. in
         (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
       names)

let emit p (o : Outcome.opts) (r : Outcome.t) =
  print_row p o r;
  if o.Outcome.trace then layer_table r;
  let l = r.Outcome.ledger in
  let base = Printf.sprintf "%s-seed%d-trace%d" r.Outcome.workload o.Outcome.seed
      (if o.Outcome.trace then 1 else 0) in
  let file = Filename.concat o.Outcome.out_dir base in
  if o.Outcome.trace then Span.write_jsonl r.Outcome.spans (file ^ ".spans.jsonl");
  let num l = Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) l) in
  Out_channel.with_open_text (file ^ ".json") (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              (provenance_fields p o r
              @ [
                  ("attempted", Json.Int (Ledger.attempted l));
                  ("failed", Json.Int (Ledger.failed l));
                  ("failures", Json.Arr (List.map (fun s -> Json.Str s) (Ledger.reasons l)));
                  ("end_to_end", num r.Outcome.e2e);
                  ("per_layer", num r.Outcome.layers);
                ])));
      output_char oc '\n');
  let names = if o.Outcome.trace then Catalog.per_layer else Catalog.end_to_end in
  let values = if o.Outcome.trace then r.Outcome.layers else r.Outcome.e2e in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (Ledger.failed l = 0 && Ledger.attempted l > 0));
            ("attempted", Json.Int (max 1 (Ledger.attempted l)));
            ("failed", Json.Int (Ledger.failed l));
            ("metrics", metrics_json names values);
          ]))
