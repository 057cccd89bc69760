(* Public surface of the layered trace codec.  The layers, bottom up:

     {!Trace_wire}       varints, little-endian fields, [Decode_error]
     {!Trace_frame}      length + CRC32C framing, the frame walker
     {!Trace_transform}  version-3 payload transforms (packing + entropy)
     {!Trace_record}     plain event records (versions 1 and 2)
     {!Trace_packed}     packed event coding (version 3)
     {!Trace_chunk}      the chunk cursor every reader decodes through
     {!Trace_container}  header/version negotiation, ATRI shard index

   Every reader here is a driver over two cores: a {!Trace_frame.walker}
   finds and verifies payloads, and a {!Trace_chunk} cursor decodes them.
   The drivers differ only in where bytes come from (a channel read
   front to back, a seek per shard, a string) and in what a damaged
   chunk costs (the stream, or a reported drop).  Formats 1 and 2 are
   byte-for-byte what the pre-split codec produced (pinned by the golden
   tests); format 3 reuses the v2 framing and index around transformed
   payloads. *)

module Vec = Aprof_util.Vec
module Batch = Event.Batch

let magic = Trace_container.magic
let version = Trace_container.version
let max_version = Trace_container.max_version
let default_chunk = Trace_frame.default_chunk
let bad = Trace_wire.bad

let file_version ic =
  In_channel.seek ic 0L;
  Trace_container.input_header ic

(* A version-3 chunk also flushes on event count: repeat suppression can
   swallow millions of events into a few bytes, and an unbounded chunk
   would destroy the granularity the work-stealing replay shards by. *)
let v3_chunk_events = 1 lsl 16

(* ----- writer ----------------------------------------------------------- *)

(* The one writer, for every version, into [out]: events go through the
   version's event encoder, each flushed chunk is framed (versions >= 2)
   behind the header, and [drain] hands [out] on at the header, after
   every chunk and at close.  The index entries describe the *stored*
   payloads; chunk [i]'s frame starts at 5 + the earlier frames. *)
let writer_into ~chunk_bytes ~index ~format_version ~entropy ~routine_name
    ~drain out =
  Trace_container.check_format_version format_version;
  Buffer.add_string out magic;
  Buffer.add_char out (Char.chr format_version);
  drain ();
  (* [encode] one event, the chunk's [pending] bytes, [take] its payload *)
  let encode, pending, take, max_events =
    if format_version >= 3 then begin
      let enc = Trace_packed.create_encoder () in
      let defined = Hashtbl.create 64 in
      ( (fun tag tid arg len ->
          if tag = Batch.tag_call && not (Hashtbl.mem defined arg) then begin
            Hashtbl.add defined arg ();
            Trace_packed.add_def enc arg (routine_name arg)
          end;
          Trace_packed.add_event enc ~tag ~tid ~arg ~len),
        (fun () -> Trace_packed.chunk_length enc),
        (fun () -> Trace_transform.seal ~entropy (Trace_packed.take_chunk enc)),
        v3_chunk_events )
    end
    else begin
      let buf = Buffer.create (chunk_bytes + 256) in
      ( Trace_record.encoder buf ~routine_name,
        (fun () -> Buffer.length buf),
        (fun () ->
          let payload = Buffer.to_bytes buf in
          Buffer.clear buf;
          payload),
        max_int )
    end
  in
  (* Per-chunk stats for the index.  The last-tid cache keeps the table
     lookup off the hot path: consecutive events of one thread are the
     overwhelmingly common case. *)
  let chunks = ref [] in
  let marker_off = ref 5 in
  let events = ref 0 in
  let tag_mask = ref 0 in
  let tid_set : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let last_tid = ref min_int in
  let flush () =
    if !events > 0 then begin
      let payload = take () in
      let n = Bytes.length payload in
      let crc =
        if format_version >= 2 then Trace_frame.add_frame out payload
        else begin
          Buffer.add_bytes out payload;
          -1
        end
      in
      marker_off :=
        !marker_off + n
        + if format_version >= 2 then Trace_frame.frame_overhead n else 0;
      let tids =
        Hashtbl.fold (fun tid () acc -> tid :: acc) tid_set []
        |> List.sort compare |> Array.of_list
      in
      chunks :=
        {
          Trace_container.c_bytes = n;
          c_events = !events;
          c_tag_mask = !tag_mask;
          c_crc = crc;
          c_tids = tids;
        }
        :: !chunks;
      events := 0;
      tag_mask := 0;
      Hashtbl.reset tid_set;
      last_tid := min_int;
      drain ()
    end
  in
  let emit_batch b =
    Batch.iter
      (fun tag tid arg len ->
        encode tag tid arg len;
        incr events;
        tag_mask := !tag_mask lor (1 lsl tag);
        if tid <> !last_tid then begin
          last_tid := tid;
          Hashtbl.replace tid_set tid ()
        end;
        if pending () >= chunk_bytes || !events >= max_events then flush ())
      b
  in
  let close_batch () =
    flush ();
    Buffer.add_char out (Char.chr Trace_record.end_tag);
    if index then begin
      Trace_container.add_footer out ~format_version (List.rev !chunks);
      Trace_wire.add_le64 out (!marker_off + 1);
      Buffer.add_string out Trace_container.index_magic
    end;
    drain ()
  in
  { Trace_stream.emit_batch; close_batch }

let batch_writer ?(chunk_bytes = default_chunk) ?(index = true)
    ?(format_version = version) ?(entropy = false)
    ?(routine_name = Trace_record.default_routine_name) oc =
  let out = Buffer.create (chunk_bytes + 256) in
  writer_into ~chunk_bytes ~index ~format_version ~entropy ~routine_name out
    ~drain:(fun () ->
      Buffer.output_buffer oc out;
      Buffer.clear out)

let writer ?chunk_bytes ?index ?format_version ?entropy ?routine_name oc =
  Trace_stream.sink_of_batches
    (batch_writer ?chunk_bytes ?index ?format_version ?entropy ?routine_name
       oc)

(* ----- sequential reader ------------------------------------------------ *)

(* A batch source over a sequence of payloads: [next ()] loads the next
   one into the cursor [c] ([false] when there is none), and each pull
   fills the recycled batch [b] from as many payloads as that takes. *)
let source ?keep ~define ~next c b =
  let loaded = ref false in
  let finished = ref false in
  fun () ->
    if !finished then None
    else begin
      Batch.clear b;
      let full = ref false in
      while not (!full || !finished) do
        if not !loaded then
          if next () then loaded := true else finished := true
        else if Trace_chunk.fill c ?keep ~define b then loaded := false
        else full := true
      done;
      Trace_record.validate_batch b;
      if Batch.is_empty b then None else Some b
    end

(* The sequential reader of a trace body (after the header), over any
   byte input: [more buf pos len] works like [In_channel.input].  Frames
   are walked and each payload is checksummed before the cursor sees it;
   a bare version-1 stream goes through a sliding window of
   [chunk_bytes], grown only for a record longer than the window.  After
   the end marker, the footer (if any) goes through the same check for
   every version. *)
let read_body ~version ~chunk_bytes ~batch_size ~define more =
  let c = Trace_chunk.create () in
  let one = Bytes.create 1 in
  let input_byte () =
    if more one 0 1 = 0 then -1 else Char.code (Bytes.get one 0)
  in
  let rec really buf pos n =
    n = 0
    ||
    let k = more buf pos n in
    k > 0 && really buf (pos + k) (n - k)
  in
  let next =
    if version >= 2 then begin
      let w = Trace_frame.walker ~max_payload:Trace_frame.max_chunk_payload in
      let buf = ref Bytes.empty in
      fun () ->
        match Trace_frame.read_frame_header w ~input_byte with
        | End_marker ->
          Trace_container.check_end ~trace_version:version ~input_byte
            ~footer_off:(w.off + 1)
            ~frames:(Some (List.rev w.frames));
          false
        | Frame { paylen; crc } ->
          if Bytes.length !buf < paylen then buf := Bytes.create paylen;
          if not (really !buf 0 paylen) then
            bad "chunk %d at byte %d: truncated payload" w.ordinal w.off;
          Trace_frame.take_frame w !buf ~pos:0 ~paylen ~crc;
          Trace_chunk.start c ~version !buf ~pos:0 ~len:paylen;
          true
    end
    else begin
      let win = ref (Bytes.create (max 1 chunk_bytes)) in
      let base = ref 5 (* stream offset of [!win.[0]] *) in
      let filled = ref 0 in
      fun () ->
        let p = Trace_chunk.pos c in
        if Trace_chunk.ended c then begin
          let rest = ref p in
          Trace_container.check_end ~trace_version:1 ~footer_off:(!base + p)
            ~frames:None ~input_byte:(fun () ->
              if !rest >= !filled then input_byte ()
              else begin
                incr rest;
                Char.code (Bytes.get !win (!rest - 1))
              end);
          false
        end
        else begin
          (* Keep the unconsumed tail — a record the window cut — and
             read on behind it. *)
          let tail = !filled - p in
          Bytes.blit !win p !win 0 tail;
          base := !base + p;
          if tail = Bytes.length !win then begin
            let grown = Bytes.create (2 * tail) in
            Bytes.blit !win 0 grown 0 tail;
            win := grown
          end;
          let n = more !win tail (Bytes.length !win - tail) in
          filled := tail + n;
          if !filled = 0 then
            bad "truncated trace (missing end-of-trace marker)";
          Trace_chunk.start_stream c !win ~pos:0 ~len:!filled ~final:(n = 0);
          true
        end
    end
  in
  source ~define ~next c (Trace_chunk.batch batch_size)

let batch_reader ?(chunk_bytes = default_chunk)
    ?(batch_size = Batch.default_capacity) ic =
  let version = Trace_container.input_header ic in
  let names = Hashtbl.create 64 in
  ( names,
    read_body ~version ~chunk_bytes ~batch_size ~define:(Hashtbl.replace names)
      (In_channel.input ic) )

let reader ?chunk_bytes ic =
  let names, batches = batch_reader ?chunk_bytes ic in
  (names, Trace_stream.events_of_batches batches)

(* ----- shard index ------------------------------------------------------ *)

type shard = Trace_container.shard = {
  offset : int;
  bytes : int;
  events : int;
  tag_mask : int;
  crc : int;
  tids : int array;
}

let shards = Trace_container.shards

(* Seek to shard [sh], read its payload into [!buf] and verify it before
   any decoding: the cursor's fast path trusts these bytes. *)
let load_shard ic buf (sh : shard) =
  if Bytes.length !buf < sh.bytes then buf := Bytes.create sh.bytes;
  In_channel.seek ic (Int64.of_int sh.offset);
  (try really_input ic !buf 0 sh.bytes
   with End_of_file -> bad "chunk at byte %d truncated" sh.offset);
  if sh.crc >= 0 then
    Trace_frame.check_payload
      ~context:(fun () -> Printf.sprintf "chunk at byte %d" sh.offset)
      !buf ~pos:0 ~len:sh.bytes ~crc:sh.crc

(* The work-stealing engine does not know its chunk sequence up front,
   so a session reads one claimed chunk at a time, reusing one batch,
   one byte buffer, one cursor and one name table across calls. *)
let chunk_session ?(batch_size = Batch.default_capacity) ?keep ic =
  let version = file_version ic in
  let names = Hashtbl.create 64 in
  let c = Trace_chunk.create () in
  let b = Trace_chunk.batch batch_size in
  let buf = ref Bytes.empty in
  let read sh =
    load_shard ic buf sh;
    Trace_chunk.start c ~version !buf ~pos:0 ~len:sh.bytes;
    let loaded = ref true in
    source ?keep ~define:(Hashtbl.replace names) c b ~next:(fun () ->
        let first = !loaded in
        loaded := false;
        first)
  in
  (names, read)

let sharded_reader ?(path = "trace") ?batch_size ic shs ~select =
  let names, read = chunk_session ?batch_size ic in
  let todo = ref (List.filter select (Array.to_list shs)) in
  let current = ref (fun () -> None) in
  let rec next () =
    match !current () with
    | Some _ as b -> b
    | None -> (
      match !todo with
      | [] -> None
      | sh :: rest ->
        todo := rest;
        current := read sh;
        next ())
  in
  ( names,
    fun () ->
      try next ()
      with Trace_stream.Decode_error m -> bad "cannot replay %s: %s" path m )

(* ----- salvage reader --------------------------------------------------- *)

type drop = {
  drop_chunk : int;
  drop_offset : int;
  drop_bytes : int;
  drop_events : int;
  drop_reason : string;
}

let drop ~chunk ~offset ~bytes ~events reason =
  {
    drop_chunk = chunk;
    drop_offset = offset;
    drop_bytes = bytes;
    drop_events = events;
    drop_reason = reason;
  }

(* Salvage over a usable index: every chunk's boundaries are known, so a
   corrupt chunk is skipped exactly and the next one re-synchronizes the
   stream.  The index's CRC (version >= 2) is authoritative; on version-1
   files detection falls back to decode errors and the event count. *)
let salvage_indexed ~report ~version ic shs =
  let names = Hashtbl.create 64 in
  let c = Trace_chunk.create () in
  let stage = ref (Batch.create ~capacity:1024 ()) in
  let buf = ref Bytes.empty in
  let idx = ref 0 in
  let rec next () =
    if !idx >= Array.length shs then None
    else begin
      let ordinal = !idx in
      let sh = shs.(ordinal) in
      incr idx;
      match
        load_shard ic buf sh;
        Trace_chunk.start c ~version !buf ~pos:0 ~len:sh.bytes;
        let b, defs = Trace_chunk.whole c ~stage ~events_hint:sh.events in
        if Batch.length b <> sh.events then
          bad "decoded %d events where the index says %d" (Batch.length b)
            sh.events;
        (b, defs)
      with
      | b, defs ->
        List.iter (fun (id, name) -> Hashtbl.replace names id name) defs;
        Some b
      | exception Trace_stream.Decode_error reason ->
        report
          (drop ~chunk:ordinal ~offset:sh.offset ~bytes:sh.bytes
             ~events:sh.events reason);
        next ()
    end
  in
  (names, next)

(* Salvage without an index, version >= 2: the frames are
   self-delimiting, so a checksum or payload failure inside a frame
   skips exactly that frame.  Once the framing itself breaks (a corrupt
   length, a truncated payload) there is no boundary left to
   re-synchronize on: the rest of the file is reported as a single
   terminal drop. *)
let salvage_frames ~report ~version ic =
  In_channel.seek ic 5L;
  let names = Hashtbl.create 64 in
  let c = Trace_chunk.create () in
  let stage = ref (Batch.create ~capacity:1024 ()) in
  let buf = ref Bytes.empty in
  let w = Trace_frame.walker ~max_payload:Trace_frame.max_chunk_payload in
  let input_byte () =
    match In_channel.input_byte ic with Some c -> c | None -> -1
  in
  let finished = ref false in
  let terminal reason =
    finished := true;
    report
      (drop ~chunk:w.ordinal ~offset:w.off ~bytes:(-1) ~events:(-1) reason);
    None
  in
  let rec next () =
    if !finished then None
    else
      match Trace_frame.read_frame_header w ~input_byte with
      | exception Trace_stream.Decode_error reason -> terminal reason
      | End_marker ->
        (* Trailing bytes after the marker are the footer (already known
           to be unusable, or absent) — nothing left to salvage. *)
        finished := true;
        None
      | Frame { paylen; crc } -> (
        if Bytes.length !buf < paylen then buf := Bytes.create paylen;
        match really_input ic !buf 0 paylen with
        | exception End_of_file -> terminal "truncated payload"
        | () -> (
          let chunk = w.ordinal in
          let offset = w.off + Trace_frame.frame_overhead paylen in
          match
            Trace_frame.take_frame w !buf ~pos:0 ~paylen ~crc;
            Trace_chunk.start c ~version !buf ~pos:0 ~len:paylen;
            Trace_chunk.whole c ~stage ~events_hint:(-1)
          with
          | b, defs ->
            List.iter (fun (id, name) -> Hashtbl.replace names id name) defs;
            Some b
          | exception Trace_stream.Decode_error reason ->
            report (drop ~chunk ~offset ~bytes:paylen ~events:(-1) reason);
            next ()))
  in
  (names, next)

let read ?(chunk_bytes = default_chunk) ?(batch_size = Batch.default_capacity)
    ?path ~on_corrupt ic =
  match on_corrupt with
  | `Fail -> batch_reader ~chunk_bytes ~batch_size ic
  | `Skip report ->
    let version = Trace_container.input_header ic in
    let total = Int64.to_int (In_channel.length ic) in
    let has_trailer =
      total >= 5 + 1 + 6 + Trace_container.index_trailer_bytes
      && begin
           In_channel.seek ic (Int64.of_int (total - 4));
           match really_input_string ic 4 with
           | s -> s = Trace_container.index_magic
           | exception End_of_file -> false
         end
    in
    if has_trailer then
      (* The trailer promises an index; it is the authority on chunk
         boundaries, so an unreadable footer is fatal even in salvage
         mode — without trusted boundaries a skip could deliver
         re-framed garbage as events. *)
      match shards ?path ic with
      | Some shs -> salvage_indexed ~report ~version ic shs
      | None ->
        bad "cannot salvage %s: trailer present but index unreadable"
          (Option.value path ~default:"trace")
    else if version >= 2 then salvage_frames ~report ~version ic
    else begin
      (* A version-1 stream has no boundaries to re-synchronize on: the
         first malformation drops the rest of the file as one terminal
         region.  Batches delivered before the failure stand. *)
      In_channel.seek ic 5L;
      let names = Hashtbl.create 64 in
      let body =
        read_body ~version ~chunk_bytes ~batch_size
          ~define:(Hashtbl.replace names) (In_channel.input ic)
      in
      let failed = ref false in
      ( names,
        fun () ->
          if !failed then None
          else
            try body ()
            with Trace_stream.Decode_error reason ->
              failed := true;
              report
                (drop ~chunk:(-1) ~offset:(-1) ~bytes:(-1) ~events:(-1) reason);
              None )
    end

(* ----- whole-trace convenience ------------------------------------------ *)

let to_string ?(format_version = version) ?(entropy = false)
    ?(routine_name = Trace_record.default_routine_name) (tr : Event.t Vec.t) =
  let out = Buffer.create (16 + (4 * Vec.length tr)) in
  ignore
    (Trace_stream.connect_batches
       (Trace_stream.batches_of_trace tr)
       (writer_into ~chunk_bytes:default_chunk ~index:false ~format_version
          ~entropy ~routine_name ~drain:ignore out));
  Buffer.contents out

let of_string s =
  let at = ref 5 in
  let more buf pos len =
    let n = max 0 (min len (String.length s - !at)) in
    Bytes.blit_string s !at buf pos n;
    at := !at + n;
    n
  in
  let names = ref [] in
  let out = Vec.create () in
  try
    let version = Trace_container.parse_header s in
    let src =
      read_body ~version ~chunk_bytes:(String.length s)
        ~batch_size:Batch.default_capacity
        ~define:(fun id name -> names := (id, name) :: !names)
        more
    in
    let rec drain () =
      match src () with
      | None -> ()
      | Some b ->
        Batch.iter_events (Vec.push out) b;
        drain ()
    in
    drain ();
    Ok (out, List.rev !names)
  with Trace_stream.Decode_error msg -> Error msg

let detect ic =
  let start = In_channel.pos ic in
  let head = really_input_string ic (min 4 (String.length magic)) in
  In_channel.seek ic start;
  if head = magic then `Binary else `Text

let detect ic = try detect ic with End_of_file -> `Text
