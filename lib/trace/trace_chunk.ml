(* The chunk cursor: the one decoder under every trace reader.  It is
   started on one payload — a CRC-verified version-1/2 record chunk, a
   version-3 stored chunk, or a window of a bare version-1 stream — and
   [fill] then decodes into the caller's batch until the batch is full
   or the payload is done.  The version is dispatched once, at [start];
   the per-event loops are {!Trace_record.fill_batch_bytes} (and its
   keep-filtered twin) and {!Trace_packed.fill}.  File streaming, the
   shard session, salvage, [of_string] and the socket reader are drivers
   that only decide where payloads come from and where batches go. *)

module Batch = Event.Batch

let bad = Trace_wire.bad

(* Salvage decodes a chunk whole; this caps how far one chunk may
   expand, bounding what a corrupt repeat count can make it allocate. *)
let max_chunk_events = 1 lsl 27

type kind =
  | Records  (* plain records, no end marker (version 1/2 chunk) *)
  | Stream  (* bare version-1 records, ending at the end marker *)
  | Packed  (* version-3 packed chunk *)

type t = {
  mutable kind : kind;
  mutable src : Bytes.t;
  pos : int ref;
  mutable limit : int;
  mutable final : bool;  (* Stream: no input follows [limit] *)
  mutable ended : bool;  (* Stream: the end marker was consumed *)
  dec : Trace_packed.decoder;
  scratch : Bytes.t ref;  (* entropy-decoded version-3 payloads *)
}

let create () =
  {
    kind = Records;
    src = Bytes.empty;
    pos = ref 0;
    limit = 0;
    final = true;
    ended = false;
    dec = Trace_packed.create_decoder ();
    scratch = ref Bytes.empty;
  }

(* A batch [fill] can use: room for [batch_size] events, and at least
   for one whole version-3 pattern. *)
let batch batch_size =
  Batch.create ~capacity:(max batch_size Trace_packed.pat_kmax) ()

let pos c = !(c.pos)
let ended c = c.ended

(* [start c ~version src ~pos ~len] loads one verified chunk payload of
   a version-[version] trace. *)
let start c ~version src ~pos ~len =
  if version >= 3 then begin
    let pbuf, ppos, plen =
      Trace_transform.open_payload src ~pos ~len ~scratch:c.scratch
    in
    Trace_packed.start_chunk c.dec pbuf ~pos:ppos ~len:plen;
    c.kind <- Packed
  end
  else begin
    c.kind <- Records;
    c.src <- src;
    c.pos := pos;
    c.limit <- pos + len
  end

(* [start_stream c src ~pos ~len ~final] loads a window of a bare
   version-1 stream; unless [final], a record running past the window is
   left for the next one rather than reported as truncated. *)
let start_stream c src ~pos ~len ~final =
  c.kind <- Stream;
  c.src <- src;
  c.pos := pos;
  c.limit <- pos + len;
  c.final <- final;
  c.ended <- false

let rec fill_records c ?keep ~define b =
  (match keep with
  | None -> Trace_record.fill_batch_bytes b c.src c.pos c.limit
  | Some keep ->
    Trace_record.fill_batch_bytes_keep b c.src c.pos c.limit ~keep);
  let p = !(c.pos) in
  if p >= c.limit then true
  else if Batch.is_full b then false
  else if c.kind = Stream && Bytes.get c.src p = '\000' then begin
    c.pos := p + 1;
    c.ended <- true;
    true
  end
  else if c.kind = Stream && not c.final then
    match Trace_record.step ?keep ~define b c.src c.pos c.limit with
    | () -> fill_records c ?keep ~define b
    | exception Trace_stream.Decode_error _ when !(c.pos) >= c.limit ->
      c.pos := p;
      true
  else begin
    Trace_record.step ?keep ~define b c.src c.pos c.limit;
    fill_records c ?keep ~define b
  end

(* [fill c ?keep ~define b] appends to [b] until it is full ([false])
   or the payload is done ([true]: exhausted, or for a stream window,
   ended or stopped at a record that continues past it); [b] comes from
   [batch] or is at least as large.  With [?keep], events
   failing [keep tag tid] are decoded but not stored; definitions go to
   [define] in stream order.  The caller validates the batch. *)
let fill c ?keep ~define b =
  match c.kind with
  | Packed -> Trace_packed.fill c.dec ?keep ~define b
  | Records | Stream -> fill_records c ?keep ~define b

(* Decode the loaded payload whole into [!stage], all-or-nothing, for
   the salvaging readers: the stage grows (doubling, up to
   [max_chunk_events]) until the chunk fits, and the chunk's definitions
   are returned, oldest first, instead of applied — a chunk that fails
   halfway defines nothing.  [events_hint] only presizes, up to what a
   writer puts in one chunk: the stage grows past that only for events
   the payload really decodes to. *)
let whole c ~stage ~events_hint =
  let want = max 1024 (min events_hint (1 lsl 16)) in
  if Batch.capacity !stage < want then stage := Batch.create ~capacity:want ();
  Batch.clear !stage;
  let defs = ref [] in
  let define id name = defs := (id, name) :: !defs in
  while not (fill c ~define !stage) do
    let b = !stage in
    let cap = Batch.capacity b in
    if cap >= max_chunk_events then
      bad "chunk decodes to more than %d events" max_chunk_events;
    let grown = Batch.create ~capacity:(min (2 * cap) max_chunk_events) () in
    let len = Batch.length b in
    Array.blit (Batch.tags b) 0 (Batch.tags grown) 0 len;
    Array.blit (Batch.tids b) 0 (Batch.tids grown) 0 len;
    Array.blit (Batch.args b) 0 (Batch.args grown) 0 len;
    Array.blit (Batch.lens b) 0 (Batch.lens grown) 0 len;
    Batch.unsafe_set_length grown len;
    stage := grown
  done;
  Trace_record.validate_batch !stage;
  (!stage, List.rev !defs)
