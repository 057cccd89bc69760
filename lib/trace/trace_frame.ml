(* Frame layer: length + CRC32C framing of chunk payloads (format
   versions >= 2) and the end-of-trace marker.  A frame is

     frame := paylen:uvarint crc32c:le32 payload[paylen]

   [paylen] is never 0, so the single-zero end marker is unambiguous.
   The CRC covers the stored payload bytes exactly as they sit in the
   file — for version 3 that is the transformed payload, so integrity is
   checked before the transform layer ever touches the bytes. *)

module Crc32c = Aprof_util.Crc32c

let bad = Trace_wire.bad
let default_chunk = 64 * 1024

(* A frame length takes at most ten varint bytes, but anything near
   that is corruption, not a trace: cap what a reader will allocate. *)
let max_chunk_payload = 1 lsl 30

(* Varints are canonical, so a frame header's size follows from its
   length. *)
let frame_overhead paylen = Trace_wire.uvarint_size paylen + 4

(* [add_frame buf payload] frames one chunk payload into [buf],
   returning the CRC it stored (for the shard index). *)
let add_frame buf payload =
  let n = Bytes.length payload in
  let crc = Crc32c.digest payload ~pos:0 ~len:n in
  Trace_wire.add_uvarint buf n;
  Trace_wire.add_le32 buf crc;
  Buffer.add_bytes buf payload;
  crc

(* [check_payload bytes ~pos ~len ~crc] verifies a chunk's checksum
   before any decoding touches the bytes; [context] prefixes the error
   message (typically "chunk N at byte B" or a file path). *)
let check_payload ~context bytes ~pos ~len ~crc =
  let computed = Crc32c.digest bytes ~pos ~len in
  if computed <> crc then
    bad "%s: checksum mismatch (stored %08x, computed %08x)" (context ())
      crc computed

(* ----- the frame walker ------------------------------------------------ *)

(* Every framed reader — file, string, socket, salvage — walks frames
   through one of these.  It knows where the next frame starts (an
   offset from the trace's first byte) and how many came before, for
   error messages and drop reports, and it collects the streamed
   [(paylen, crc)] list that {!Trace_container.check_streamed_footer}
   holds against the index footer. *)
type walker = {
  max_payload : int;
  mutable ordinal : int;  (* frames taken so far *)
  mutable off : int;  (* trace offset of the next frame header *)
  mutable frames : (int * int) list;  (* (paylen, crc), newest first *)
}

let walker ~max_payload = { max_payload; ordinal = 0; off = 5; frames = [] }

(* What one [read_frame_header] step found. *)
type header = End_marker | Frame of { paylen : int; crc : int }

(* Read one frame header (or the end marker) through [input_byte] ([-1]
   at end of input).  Truncation before any length byte is reported as a
   missing end-of-trace marker, matching the record-layer contract that
   a complete trace always carries the marker.  The walker itself only
   moves in [take_frame], so a socket reader that runs out of bytes
   mid-header can simply retry. *)
let read_frame_header w ~input_byte =
  let before = ref true in
  let paylen =
    try
      Trace_wire.read_uvarint (fun () ->
          let b = input_byte () in
          if b <> -1 then before := false;
          b)
    with Trace_stream.Decode_error _ when !before ->
      bad "truncated trace (missing end-of-trace marker)"
  in
  if paylen = 0 then End_marker
  else begin
    if paylen > w.max_payload then
      bad "chunk %d at byte %d: implausible length %d" w.ordinal w.off paylen;
    let crc = ref 0 in
    for i = 0 to 3 do
      match input_byte () with
      | -1 -> bad "chunk %d at byte %d: truncated header" w.ordinal w.off
      | c -> crc := !crc lor (c lsl (8 * i))
    done;
    Frame { paylen; crc = !crc }
  end

(* Account for the frame whose header was just read, then verify its
   payload [bytes[pos..pos+paylen)].  The walker advances even when the
   checksum fails, so a salvaging reader can drop the frame and go on. *)
let take_frame w bytes ~pos ~paylen ~crc =
  let ord = w.ordinal and off = w.off in
  w.ordinal <- ord + 1;
  w.off <- off + frame_overhead paylen + paylen;
  w.frames <- (paylen, crc) :: w.frames;
  check_payload
    ~context:(fun () -> Printf.sprintf "chunk %d at byte %d" ord off)
    bytes ~pos ~len:paylen ~crc
