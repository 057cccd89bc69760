(* Event layer, plain coding (format versions 1 and 2): one record per
   event, tag byte + zigzag-varint fields, with interleaved routine-name
   definition records.  This is the layer that fills {!Event.Batch}es —
   including the bulk unsafe fast path and its keep-filtered twin — and
   {!Trace_chunk} drives it for every version-1/2 reader. *)

module Batch = Event.Batch

let bad = Trace_wire.bad
let def_tag = 15
let end_tag = 0
let default_routine_name id = Printf.sprintf "routine_%d" id

(* Event record tags are exactly {!Event.Batch}'s tags (1–14), so both
   encode and decode work on the raw packed fields: tid always, then the
   primary payload when the kind has one, then the length when it has
   one.  This is the single plain encoder; every v1/v2 writer entry
   point funnels into it. *)
let add_record buf ~tag ~tid ~arg ~len =
  Buffer.add_char buf (Char.unsafe_chr tag);
  Trace_wire.add_varint buf tid;
  if Batch.tag_has_arg tag then Trace_wire.add_varint buf arg;
  if Batch.tag_has_len tag then Trace_wire.add_varint buf len

let add_def buf id name =
  Buffer.add_char buf (Char.unsafe_chr def_tag);
  Trace_wire.add_varint buf id;
  Trace_wire.add_varint buf (String.length name);
  Buffer.add_string buf name

(* [encoder buf ~routine_name] is the raw per-record encoder, interning
   routine names: the first [Call] of each routine is preceded by its
   definition record.  Matches {!Event.Batch.iter}'s field order. *)
let encoder buf ~routine_name =
  let defined = Hashtbl.create 64 in
  fun tag tid arg len ->
    if tag = Batch.tag_call && not (Hashtbl.mem defined arg) then begin
      Hashtbl.add defined arg ();
      add_def buf arg (routine_name arg)
    end;
    add_record buf ~tag ~tid ~arg ~len

(* One record off [chunk[!pos..limit)], every read bounds-checked: the
   slow path behind [fill_batch_bytes], taken at definition records and
   within [max_record_bytes] of [limit].  With [?keep], event records
   failing [keep tag tid] are parsed (the cursor always advances past
   them) but not stored; definitions are always processed.  The
   end-of-trace marker is no record here — only a bare version-1 stream
   carries it, and its reader checks for it first. *)
let step ?keep ~define b chunk pos limit =
  let tag = Char.code (Bytes.get chunk !pos) in
  incr pos;
  if tag = def_tag then begin
    let id = Trace_wire.read_varint_bytes_checked chunk pos limit in
    let n = Trace_wire.read_varint_bytes_checked chunk pos limit in
    define id (Trace_wire.read_name chunk pos limit n)
  end
  else if tag >= 1 && tag <= Batch.max_tag then begin
    let tid = Trace_wire.read_varint_bytes_checked chunk pos limit in
    let arg =
      if Batch.tag_has_arg tag then
        Trace_wire.read_varint_bytes_checked chunk pos limit
      else 0
    in
    let len =
      if Batch.tag_has_len tag then
        Trace_wire.read_varint_bytes_checked chunk pos limit
      else 0
    in
    match keep with
    | Some keep when not (keep tag tid) -> ()
    | _ -> Batch.unsafe_push b ~tag ~tid ~arg ~len
  end
  else bad "unknown record tag %d" tag

(* Decoded bytes are untrusted; downstream tools index shadow pages,
   dense per-thread state and lockset memo keys with the raw fields and
   no per-access guard, so the batch edge is where negative addresses
   and out-of-range thread/lock ids must die.  Every fill site calls
   this once per refilled batch. *)
let validate_batch b =
  try Batch.validate b
  with Invalid_argument msg -> bad "%s" msg

(* Bulk fast path over a chunk: decode plain event records directly off
   the bytes while a whole record is guaranteed to fit below [limit],
   without going through the [read_byte] closure.  Stops — leaving [pos]
   on the offending tag — at definition records, the end marker, or any
   malformed tag, which [step] then handles. *)
let fill_batch_bytes b chunk pos limit =
  let tags = Batch.tags b and tids = Batch.tids b in
  let args = Batch.args b and lens = Batch.lens b in
  let cap = Array.length tags in
  let arg_mask = Batch.arg_mask and len_mask = Batch.len_mask in
  (* [!p <= last_start] guarantees a whole record fits before [limit]. *)
  let last_start = limit - Trace_wire.max_record_bytes in
  let i = ref (Batch.length b) in
  let p = ref !pos in
  let stop = ref false in
  while (not !stop) && !i < cap && !p <= last_start do
    let tag = Char.code (Bytes.unsafe_get chunk !p) in
    if tag >= 1 && tag <= Batch.max_tag then begin
      incr p;
      let tid = Trace_wire.read_varint_bytes_fast chunk p in
      let arg =
        if (arg_mask lsr tag) land 1 = 1 then
          Trace_wire.read_varint_bytes_fast chunk p
        else 0
      in
      let len =
        if (len_mask lsr tag) land 1 = 1 then
          Trace_wire.read_varint_bytes_fast chunk p
        else 0
      in
      let j = !i in
      Array.unsafe_set tags j tag;
      Array.unsafe_set tids j tid;
      Array.unsafe_set args j arg;
      Array.unsafe_set lens j len;
      i := j + 1
    end
    else stop := true
  done;
  Batch.unsafe_set_length b !i;
  pos := !p

(* Keep-filtered twin of [fill_batch_bytes]: every record is parsed at
   full speed, but only those satisfying [keep tag tid] are stored into
   the batch.  The parallel replay engine pushes its per-shard filter
   down here so that a foreign, non-broadcast event costs only its
   varint decode — it is never materialized, validated, or re-filtered
   from the batch afterwards. *)
let fill_batch_bytes_keep b chunk pos limit ~keep =
  let tags = Batch.tags b and tids = Batch.tids b in
  let args = Batch.args b and lens = Batch.lens b in
  let cap = Array.length tags in
  let arg_mask = Batch.arg_mask and len_mask = Batch.len_mask in
  let last_start = limit - Trace_wire.max_record_bytes in
  let i = ref (Batch.length b) in
  let p = ref !pos in
  let stop = ref false in
  while (not !stop) && !i < cap && !p <= last_start do
    let tag = Char.code (Bytes.unsafe_get chunk !p) in
    if tag >= 1 && tag <= Batch.max_tag then begin
      incr p;
      let tid = Trace_wire.read_varint_bytes_fast chunk p in
      if keep tag tid then begin
        let arg =
          if (arg_mask lsr tag) land 1 = 1 then
            Trace_wire.read_varint_bytes_fast chunk p
          else 0
        in
        let len =
          if (len_mask lsr tag) land 1 = 1 then
            Trace_wire.read_varint_bytes_fast chunk p
          else 0
        in
        let j = !i in
        Array.unsafe_set tags j tag;
        Array.unsafe_set tids j tid;
        Array.unsafe_set args j arg;
        Array.unsafe_set lens j len;
        i := j + 1
      end
      else begin
        (* Discarded: step over the remaining fields without decoding. *)
        if (arg_mask lsr tag) land 1 = 1 then
          Trace_wire.skip_varint_bytes chunk p;
        if (len_mask lsr tag) land 1 = 1 then
          Trace_wire.skip_varint_bytes chunk p
      end
    end
    else stop := true
  done;
  Batch.unsafe_set_length b !i;
  pos := !p
