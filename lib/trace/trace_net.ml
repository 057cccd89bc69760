(* Socket-fed ATRC decoding: an incremental, sans-IO state machine that
   accepts the bytes of one connection in arbitrary slices and drives
   callbacks as complete items decode.  The wire format is exactly the
   file format — header, framed chunks (or bare v1 records), end
   marker, optional shard-index footer — so a client can stream a
   recorded trace file verbatim, and several traces may follow each
   other back-to-back on one connection.

   This is a driver over the same two cores as the file readers: a
   {!Trace_frame.walker} reads frame headers and checksums payloads, and
   a {!Trace_chunk} cursor decodes them in place, straight out of the
   pending buffer.  The machine buffers bytes only until the item under
   the cursor (frame header + payload, the footer, or a v1 record cut by
   the slice) is complete.  Callers implement backpressure on top: stop
   feeding when downstream is busy and the kernel socket buffer fills —
   nothing here queues decoded work.

   Corruption policy mirrors the file salvage trichotomy.  In strict
   mode the first malformation raises {!Trace_stream.Decode_error} and
   poisons the machine, and chunks decode in [batch_size] fills, one
   [on_batch] each.  With [~salvage:true] a damaged v2/v3 chunk is
   dropped whole (the frame length re-synchronizes the stream) and
   reported through [on_drop], so chunks decode all-or-nothing; damage
   to the framing itself — an implausible length, a broken header — is
   beyond salvage and still raises, as does any v1 malformation (bare
   records offer no boundary to re-synchronize on). *)

module Batch = Event.Batch

let bad = Trace_wire.bad

(* Raised internally when the pending bytes end mid-item; the cursor is
   abandoned and the partial item is retried on the next feed. *)
exception Need_more

type callbacks = {
  on_batch : Batch.t -> unit;
      (* one validated batch; valid until the callback returns *)
  on_define : int -> string -> unit;  (* routine-name definition *)
  on_trace_end : unit -> unit;  (* end-of-trace marker consumed *)
  on_drop : Trace_codec.drop -> unit;
      (* salvage mode: a damaged chunk was skipped; offsets are relative
         to the current trace's first byte *)
}

type state =
  | Header  (* expecting the 5-byte "ATRC" + version header *)
  | Chunks  (* version >= 2: at a frame boundary *)
  | Records  (* version 1: bare record stream *)
  | Trailer  (* after the end marker: EOF, footer, or another trace *)

type t = {
  cb : callbacks;
  salvage : bool;
  max_frame_bytes : int;
  mutable buf : Bytes.t;  (* pending undecoded bytes at [start..start+len) *)
  mutable start : int;
  mutable len : int;
  mutable off : int;  (* connection-stream offset of [start] *)
  mutable state : state;
  mutable failed : string option;
  mutable version : int;
  mutable trace_off : int;  (* stream offset of the current trace's header *)
  mutable walker : Trace_frame.walker;
  mutable traces : int;
  cursor : Trace_chunk.t;
  batch_size : int;
  mutable batch : Batch.t option;  (* made at the first decoded record *)
  stage : Batch.t ref;  (* salvage: whole-chunk batch *)
}

(* Pending bytes a consume pass may legitimately leave behind: an
   incomplete frame (header + capped payload) or footer. *)
let pending_slack = 64 * 1024

let create ?(salvage = false) ?(max_frame_bytes = 1 lsl 26)
    ?(batch_size = Batch.default_capacity) cb =
  if max_frame_bytes < 1 || max_frame_bytes > 1 lsl 30 then
    invalid_arg "Trace_net.create: max_frame_bytes";
  {
    cb;
    salvage;
    max_frame_bytes;
    buf = Bytes.create 65536;
    start = 0;
    len = 0;
    off = 0;
    state = Header;
    failed = None;
    version = 0;
    trace_off = 0;
    walker = Trace_frame.walker ~max_payload:max_frame_bytes;
    traces = 0;
    cursor = Trace_chunk.create ();
    batch_size;
    batch = None;
    stage = ref (Batch.create ~capacity:1 ());
  }

let pending_bytes t = t.len
let traces_completed t = t.traces
let failure t = t.failed

let append t bytes pos n =
  if n > 0 then begin
    let cap = Bytes.length t.buf in
    if t.start + t.len + n > cap then
      if t.len + n <= cap then begin
        Bytes.blit t.buf t.start t.buf 0 t.len;
        t.start <- 0
      end
      else begin
        let nb = Bytes.create (max (t.len + n) (2 * cap)) in
        Bytes.blit t.buf t.start nb 0 t.len;
        t.buf <- nb;
        t.start <- 0
      end;
    Bytes.blit bytes pos t.buf (t.start + t.len) n;
    t.len <- t.len + n
  end

(* Consumed bytes leave the pending window; they stay in [buf] until the
   next [append], which is what lets a chunk decode in place after its
   frame is committed. *)
let commit t n =
  t.start <- t.start + n;
  t.len <- t.len - n;
  t.off <- t.off + n

(* Read one pending byte at cursor [cur] (an offset past [start]);
   running out of pending bytes abandons the current item. *)
let u8 t cur =
  if !cur >= t.len then raise Need_more
  else begin
    let b = Char.code (Bytes.unsafe_get t.buf (t.start + !cur)) in
    incr cur;
    b
  end

let batch t =
  match t.batch with
  | Some b -> b
  | None ->
    let b = Trace_chunk.batch t.batch_size in
    t.batch <- Some b;
    b

let deliver t =
  match t.batch with
  | Some b when not (Batch.is_empty b) ->
    Trace_record.validate_batch b;
    t.cb.on_batch b;
    Batch.clear b
  | _ -> ()

(* Decode the payload loaded into the cursor in batch-sized fills. *)
let drain t =
  let b = batch t in
  while not (Trace_chunk.fill t.cursor ~define:t.cb.on_define b) do
    deliver t
  done

let end_trace t =
  deliver t;
  t.traces <- t.traces + 1;
  t.state <- Trailer;
  t.cb.on_trace_end ()

let step_header t =
  if t.len < 5 then false
  else begin
    t.version <-
      Trace_container.parse_header (Bytes.sub_string t.buf t.start 5);
    t.trace_off <- t.off;
    t.walker <- Trace_frame.walker ~max_payload:t.max_frame_bytes;
    commit t 5;
    t.state <- (if t.version >= 2 then Chunks else Records);
    true
  end

(* Version-1 records: the pending bytes are the cursor's window, and a
   record the slice cut stays pending for the next feed. *)
let step_records t =
  Trace_chunk.start_stream t.cursor t.buf ~pos:t.start ~len:t.len
    ~final:false;
  drain t;
  commit t (Trace_chunk.pos t.cursor - t.start);
  if Trace_chunk.ended t.cursor then end_trace t;
  t.state <> Records

(* One framed chunk (or the end marker).  The frame is committed before
   the checksum and decode, so a damaged chunk is already skipped when
   salvage reports it — the frame length is the re-synchronization
   point, exactly as in the file reader. *)
let step_chunk t =
  let w = t.walker in
  let cur = ref 0 in
  match Trace_frame.read_frame_header w ~input_byte:(fun () -> u8 t cur) with
  | exception Need_more -> false
  | End_marker ->
    commit t !cur;
    end_trace t;
    true
  | Frame { paylen; crc } ->
    if !cur + paylen > t.len then false
    else begin
      let pos = t.start + !cur in
      let chunk = w.ordinal in
      let offset = w.off + !cur in
      commit t (!cur + paylen);
      (match
         Trace_frame.take_frame w t.buf ~pos ~paylen ~crc;
         Trace_chunk.start t.cursor ~version:t.version t.buf ~pos ~len:paylen;
         if t.salvage then
           Some (Trace_chunk.whole t.cursor ~stage:t.stage ~events_hint:(-1))
         else begin
           drain t;
           None
         end
       with
      | None -> ()
      | Some (b, defs) ->
        List.iter (fun (id, name) -> t.cb.on_define id name) defs;
        t.cb.on_batch b
      | exception Trace_stream.Decode_error reason when t.salvage ->
        t.cb.on_drop
          {
            Trace_codec.drop_chunk = chunk;
            drop_offset = offset;
            drop_bytes = paylen;
            drop_events = -1;
            drop_reason = reason;
          });
      true
    end

(* After the end marker: nothing yet, another trace, or the footer —
   checked by {!Trace_container.check_streamed_footer} exactly as the
   file readers check it.  Under salvage the streamed frames are left
   out of the check (skipped frames make it meaningless). *)
let step_trailer t =
  if t.len = 0 then false
  else if Bytes.get t.buf t.start <> 'A' then
    bad "trailing data after end-of-trace marker"
  else if t.len < 4 then false
  else begin
    let four = Bytes.sub_string t.buf t.start 4 in
    if four = Trace_container.magic then begin
      (* Another trace follows back-to-back; the header step consumes. *)
      t.state <- Header;
      true
    end
    else if four = Trace_container.index_magic then begin
      let cur = ref 4 in
      match
        Trace_container.check_streamed_footer ~trace_version:t.version
          ~input_byte:(fun () -> u8 t cur)
          ~footer_off:(t.off - t.trace_off)
          ~frames:
            (if t.salvage || t.version < 2 then None
             else Some (List.rev t.walker.frames))
      with
      | () ->
        commit t !cur;
        true
      | exception Need_more -> false
    end
    else bad "trailing data after end-of-trace marker"
  end

let check_failed t =
  match t.failed with
  | Some m -> raise (Trace_stream.Decode_error m)
  | None -> ()

let feed t bytes ~pos ~len =
  check_failed t;
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Trace_net.feed";
  try
    append t bytes pos len;
    let progress = ref true in
    while !progress do
      progress :=
        match t.state with
        | Header -> step_header t
        | Chunks -> step_chunk t
        | Records -> step_records t
        | Trailer -> step_trailer t
    done;
    (* Deliver what this slice completed even when the trace goes on: a
       live profiler should not wait for a full batch. *)
    deliver t;
    if t.len > t.max_frame_bytes + pending_slack then
      bad "connection buffered %d bytes without a decodable item" t.len
  with Trace_stream.Decode_error m as e ->
    t.failed <- Some m;
    raise e

let close t =
  check_failed t;
  let clean =
    t.len = 0
    && match t.state with Trailer -> true | Header -> t.off = 0 | _ -> false
  in
  if not clean then begin
    let m = "truncated trace (missing end-of-trace marker)" in
    t.failed <- Some m;
    raise (Trace_stream.Decode_error m)
  end
