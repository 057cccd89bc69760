(* Container layer: the ATRC header and version negotiation, the ATRI
   shard-index footer (writer side and seekable parse), and the streaming
   cross-check of a framed stream against that footer.  Nothing here
   looks inside a chunk payload — the frame, transform and event layers
   own those bytes. *)

let bad = Trace_wire.bad
let magic = "ATRC"

(* Version 2 frames every flushed chunk with its byte length and a
   CRC32C of the payload, so readers verify integrity before any varint
   decoding touches the bytes; version 1 (a bare record stream) remains
   readable.  Version 3 keeps the exact v2 framing and index but runs
   each payload through the transform layer (delta + pattern packing,
   optional entropy coding) — see {!Trace_transform} and
   {!Trace_packed}.  Writers emit version 2 unless asked otherwise. *)
let version = 2
let max_version = 3

(* The shard-index footer appended after the end-of-trace marker; see
   the .mli for the layout.  Its own magic differs from the header's so
   a footer can never be mistaken for the start of a trace.  The index
   version always equals the trace version: version >= 2 entries carry
   the chunk's CRC32C so a seeking reader needs no second look at the
   chunk frame header. *)
let index_magic = "ATRI"
let index_trailer_bytes = 8 + 4 (* LE64 footer offset + magic *)

(* Header validation shared by the channel and string entry points;
   returns the format version (1..3). *)
let parse_header hdr =
  if String.length hdr < 5 then bad "truncated header";
  if String.sub hdr 0 4 <> magic then bad "bad magic: not a binary trace";
  match Char.code hdr.[4] with
  | v when v >= 1 && v <= max_version -> v
  | v ->
    bad "unsupported trace format version %d (expected 1..%d)" v max_version

let input_header ic =
  match really_input_string ic 5 with
  | hdr -> parse_header hdr
  | exception End_of_file -> bad "truncated header"

(* ----- writer side ----------------------------------------------------- *)

(* What the writer remembers about one flushed chunk, to be serialized
   into the footer on close.  [c_crc] is -1 for version-1 output.  For
   version 3, [c_bytes]/[c_crc] describe the *stored* (transformed)
   payload — the thing a seeking reader fetches and checksums — while
   [c_events] still counts decoded events. *)
type chunk_entry = {
  c_bytes : int;
  c_events : int;
  c_tag_mask : int;
  c_crc : int;
  c_tids : int array; (* distinct, ascending *)
}

let add_footer buf ~format_version chunks =
  Buffer.add_string buf index_magic;
  Buffer.add_char buf (Char.chr format_version);
  Trace_wire.add_varint buf (List.length chunks);
  List.iter
    (fun c ->
      Trace_wire.add_varint buf c.c_bytes;
      Trace_wire.add_varint buf c.c_events;
      Trace_wire.add_varint buf c.c_tag_mask;
      if format_version >= 2 then Trace_wire.add_varint buf c.c_crc;
      Trace_wire.add_varint buf (Array.length c.c_tids);
      (* Ascending tids delta-encode into one byte each in practice. *)
      let prev = ref 0 in
      Array.iter
        (fun tid ->
          Trace_wire.add_varint buf (tid - !prev);
          prev := tid)
        c.c_tids)
    chunks

let check_format_version v =
  if v < 1 || v > max_version then
    invalid_arg
      (Printf.sprintf "Trace_codec: cannot write format version %d (1..%d)" v
         max_version)

(* ----- reading the index ---------------------------------------------- *)

type shard = {
  offset : int;
  bytes : int;
  events : int;
  tag_mask : int;
  crc : int;
  tids : int array;
}

(* Read one footer through [input_byte] from just after its "ATRI" magic
   (the caller matched it) to the end of its trailer; [footer_off] is the
   trace offset of that magic.  Every reader, seeking or streaming,
   checks the same things: the version byte, each entry's syntax, that
   the entries tile the record region up to the end marker, and that the
   trailer points back at the footer. *)
let read_footer ~trace_version ~input_byte ~footer_off =
  let rb () =
    match input_byte () with
    | -1 -> bad "truncated shard index footer"
    | b -> b
  in
  (match rb () with
  | v when v = trace_version -> ()
  | v ->
    bad "shard index version %d does not match trace version %d" v
      trace_version);
  let nchunks = Trace_wire.read_varint rb in
  if nchunks < 0 || nchunks > 1 lsl 24 then
    bad "implausible shard index chunk count %d" nchunks;
  let off = ref 5 in
  (* Explicit loops: the parse order must match the byte order. *)
  let out = ref [] in
  for k = 0 to nchunks - 1 do
    let bytes = Trace_wire.read_varint rb in
    let events = Trace_wire.read_varint rb in
    let tag_mask = Trace_wire.read_varint rb in
    let crc = if trace_version >= 2 then Trace_wire.read_varint rb else -1 in
    let ntids = Trace_wire.read_varint rb in
    if
      bytes < 0 || bytes > Trace_frame.max_chunk_payload || events < 0
      || ntids < 0 || ntids > 0x10000
      || (trace_version >= 2 && (crc < 0 || crc > 0xFFFFFFFF))
    then bad "corrupt shard index entry %d" k;
    let tids = Array.make ntids 0 in
    let prev = ref 0 in
    for i = 0 to ntids - 1 do
      prev := !prev + Trace_wire.read_varint rb;
      tids.(i) <- !prev
    done;
    (* [offset]/[bytes] delimit the stored payload; a version >= 2 frame
       puts a length varint and 4 CRC bytes in front of it. *)
    let offset =
      if trace_version >= 2 then !off + Trace_frame.frame_overhead bytes
      else !off
    in
    out := { offset; bytes; events; tag_mask; crc; tids } :: !out;
    off := offset + bytes
  done;
  (* The chunks plus the end-of-trace marker must account for every byte
     up to the footer. *)
  if !off + 1 <> footer_off then
    bad "shard index chunks cover %d bytes, footer at byte %d" !off footer_off;
  let trailer = ref 0 in
  for i = 0 to 7 do
    trailer := !trailer lor (rb () lsl (8 * i))
  done;
  if !trailer <> footer_off then
    bad "shard index trailer points at byte %d, footer is at byte %d" !trailer
      footer_off;
  String.iter
    (fun c -> if rb () <> Char.code c then bad "bad shard index trailer magic")
    index_magic;
  Array.of_list (List.rev !out)

let shards ?(path = "trace") ic =
  In_channel.seek ic 0L;
  let trace_version = input_header ic in
  let total = Int64.to_int (In_channel.length ic) in
  (* Smallest indexed trace: header, marker, footer magic+version+count,
     trailer.  Anything shorter is an old index-less (or text) file. *)
  if total < 5 + 1 + 6 + index_trailer_bytes then None
  else begin
    In_channel.seek ic (Int64.of_int (total - index_trailer_bytes));
    let trailer = really_input_string ic index_trailer_bytes in
    if String.sub trailer 8 4 <> index_magic then None
    else begin
      let footer_off = ref 0 in
      for i = 7 downto 0 do
        footer_off := (!footer_off lsl 8) lor Char.code trailer.[i]
      done;
      let footer_off = !footer_off in
      let input_byte () =
        match In_channel.input_byte ic with Some b -> b | None -> -1
      in
      try
        if footer_off < 5 + 1 || footer_off > total - index_trailer_bytes - 6
        then bad "bad footer offset";
        In_channel.seek ic (Int64.of_int footer_off);
        String.iter
          (fun c -> if input_byte () <> Char.code c then bad "bad footer magic")
          index_magic;
        let shs = read_footer ~trace_version ~input_byte ~footer_off in
        if input_byte () <> -1 then bad "trailing bytes after the trailer";
        Some shs
      with Trace_stream.Decode_error m ->
        bad "cannot read shard index of %s (footer at byte %d): %s" path
          footer_off m
    end
  end

(* ----- streaming footer check ------------------------------------------ *)

(* The footer as a sequential reader meets it, after the end marker:
   {!read_footer}, and then — when the reader has them — the streamed
   frames' (payload bytes, crc), oldest first, against the entries.  A
   duplicated, deleted or reordered frame is internally self-consistent
   (its own checksum still matches), so the footer, the one record of
   what the writer flushed, is what catches it.  A bare version-1 stream
   has no frames and a salvaging reader has skipped some, so both pass
   [None]. *)
let check_streamed_footer ~trace_version ~input_byte ~footer_off ~frames =
  let entries = read_footer ~trace_version ~input_byte ~footer_off in
  match frames with
  | None -> ()
  | Some frames ->
    let streamed = Array.of_list frames in
    if Array.length streamed <> Array.length entries then
      bad "shard index describes %d chunks, the stream carried %d"
        (Array.length entries) (Array.length streamed);
    Array.iteri
      (fun k e ->
        let bytes, crc = streamed.(k) in
        if e.bytes <> bytes || e.crc <> crc then
          bad "chunk %d does not match its shard index entry" k)
      entries

(* What may follow the end marker of a file or string: nothing, or one
   footer and nothing after it. *)
let check_end ~trace_version ~input_byte ~footer_off ~frames =
  match input_byte () with
  | -1 -> ()
  | c ->
    String.iteri
      (fun i m ->
        if (if i = 0 then c else input_byte ()) <> Char.code m then
          bad "trailing data after end-of-trace marker")
      index_magic;
    check_streamed_footer ~trace_version ~input_byte ~footer_off ~frames;
    if input_byte () <> -1 then bad "trailing data after shard index"
