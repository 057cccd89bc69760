(* Order statistics for timings: medians of per-iteration figures and
   the tail-percentile rule for per-request latencies. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

(* The median of an empty list is nan, which the JSON writer turns
   into null rather than a made-up number. *)
let median = function [] -> Float.nan | xs -> Aprof_util.Stats.percentile 50. xs

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  [beyond] counts the samples above that
   rank. *)
let rank ~n p =
  (* the epsilon keeps 99.9% of 10000 at rank 9990 despite rounding *)
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)))

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan else a.(rank ~n p - 1)

let beyond ~n p = n - rank ~n p

(* The percentiles the tail rule chooses from, highest last. *)
let candidates = [ 50.; 90.; 99.; 99.9 ]

type tail = { p : float; value : float; samples : int }

(* [highest xs] is the highest candidate percentile that still has at
   least 10 samples beyond it, with the sample count; [None] when even
   the median has fewer than 10 samples above it. *)
let highest xs =
  let n = List.length xs in
  List.fold_left
    (fun best p ->
      if n > 0 && beyond ~n p >= 10 then
        Some { p; value = percentile xs p; samples = n }
      else best)
    None candidates

let tail_to_string = function
  | None -> "n/a"
  | Some t -> Printf.sprintf "p%g=%.3f (n=%d)" t.p t.value t.samples
