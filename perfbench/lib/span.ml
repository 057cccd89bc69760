(* In-memory span recorder for the traced run.

   A span is one call from the benchmark into a layer of the system: a
   name, wall-clock start and end, the span that caused it, and a
   request id (the iteration for the offline workloads, the trace for
   serve).  Spans are appended to growable parallel arrays under a
   mutex — serve's client threads record concurrently — and written
   out only when the run ends.  With recording off, [enter] returns
   [none] without touching the arrays, so the untraced run pays one
   branch per call site. *)

type t = {
  mutable on : bool;
  lock : Mutex.t;
  mutable n : int;
  mutable name : string array;
  mutable req : int array;
  mutable parent : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable words : float array;
      (** minor words allocated on this domain while the span was open *)
}

let none = -1

let create () =
  let cap = 1024 in
  {
    on = false;
    lock = Mutex.create ();
    n = 0;
    name = Array.make cap "";
    req = Array.make cap 0;
    parent = Array.make cap none;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    words = Array.make cap 0.;
  }

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- extend t.name "";
  t.req <- extend t.req 0;
  t.parent <- extend t.parent none;
  t.start <- extend t.start 0.;
  t.stop <- extend t.stop 0.;
  t.words <- extend t.words 0.

(* Append a span; the caller holds the lock. *)
let push t ~name ~req ~parent ~start ~stop ~words =
  if t.n = Array.length t.name then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.name.(id) <- name;
  t.req.(id) <- req;
  t.parent.(id) <- parent;
  t.start.(id) <- start;
  t.stop.(id) <- stop;
  t.words.(id) <- words;
  id

(* [add] records a finished span with given times, whatever [on] says.
   The tests build span trees with it. *)
let add t ~name ~req ~parent ~start ~stop ~words =
  Mutex.lock t.lock;
  let id = push t ~name ~req ~parent ~start ~stop ~words in
  Mutex.unlock t.lock;
  id

let enter t ~name ~req ~parent =
  if not t.on then none
  else begin
    Mutex.lock t.lock;
    let id = push t ~name ~req ~parent ~start:0. ~stop:0. ~words:(-.Gc.minor_words ()) in
    t.start.(id) <- Unix.gettimeofday ();
    Mutex.unlock t.lock;
    id
  end

let exit t id =
  if id <> none then begin
    let stop = Unix.gettimeofday () in
    let w = Gc.minor_words () in
    Mutex.lock t.lock;
    t.stop.(id) <- stop;
    t.words.(id) <- t.words.(id) +. w;
    Mutex.unlock t.lock
  end

let within t ~name ~req ~parent f =
  let id = enter t ~name ~req ~parent in
  match f id with
  | v ->
    exit t id;
    v
  | exception e ->
    exit t id;
    raise e

(* [self_time ~start ~stop children] is the span's duration minus the
   part of [start, stop] that the union of its children's intervals
   covers.  Children may nest, overlap each other (concurrent clients,
   parallel workers) or stick out of the parent; each is clipped to the
   parent and overlaps are counted once. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = Float.max s start and e = Float.min e stop in
        if e > s then Some (s, e) else None)
      children
    |> List.sort compare
  in
  let rec covered acc cs ce = function
    | [] -> acc +. (ce -. cs)
    | (s, e) :: rest when s <= ce -> covered acc cs (Float.max ce e) rest
    | (s, e) :: rest -> covered (acc +. (ce -. cs)) s e rest
  in
  let c = match clipped with [] -> 0. | (s, e) :: rest -> covered 0. s e rest in
  stop -. start -. c

(* Per-span self time and self minor words.  Self words subtract the
   children's words, which is exact for the single-threaded offline
   stages; concurrent spans share one domain's counter. *)
let selves t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  Array.init t.n (fun i ->
      let ks = kids.(i) in
      let self_s =
        self_time ~start:t.start.(i) ~stop:t.stop.(i)
          (List.map (fun k -> (t.start.(k), t.stop.(k))) ks)
      in
      let child_words = List.fold_left (fun a k -> a +. t.words.(k)) 0. ks in
      (self_s, Float.max 0. (t.words.(i) -. child_words)))

type layer = { self_s : float; self_words : float; count : int }

(* [by_name t ~keep] sums self time and self words per span name over
   the spans whose request id satisfies [keep]. *)
let by_name t ~keep =
  let selves = selves t in
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    if keep t.req.(i) then begin
      let s, w = selves.(i) in
      let l =
        Option.value (Hashtbl.find_opt tbl t.name.(i))
          ~default:{ self_s = 0.; self_words = 0.; count = 0 }
      in
      Hashtbl.replace tbl t.name.(i)
        { self_s = l.self_s +. s; self_words = l.self_words +. w; count = l.count + 1 }
    end
  done;
  tbl

(* One JSON object per line, times relative to the first span. *)
let write_jsonl t path =
  let t0 = if t.n > 0 then t.start.(0) else 0. in
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to t.n - 1 do
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("id", Json.Int i);
                  ("name", Json.Str t.name.(i));
                  ("req", Json.Int t.req.(i));
                  ("parent", Json.Int t.parent.(i));
                  ("start_s", Json.Num (t.start.(i) -. t0));
                  ("end_s", Json.Num (t.stop.(i) -. t0));
                  ("minor_words", Json.Num t.words.(i));
                ]));
        output_char oc '\n'
      done)
