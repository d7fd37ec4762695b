type fsync_policy = Always | Interval of int | Never

let pp_fsync_policy ppf = function
  | Always -> Format.pp_print_string ppf "always"
  | Interval n -> Format.fprintf ppf "interval:%d" n
  | Never -> Format.pp_print_string ppf "never"

let magic = "DLWAL"

(* Bump when the framing or value encoding changes incompatibly. *)
let version = 1

(* 5 magic bytes + version + 2 reserved. *)
let header_len = 8

let header () =
  let b = Buffer.create header_len in
  Buffer.add_string b magic;
  Codec.w_u8 b version;
  Codec.w_u8 b 0;
  Codec.w_u8 b 0;
  Buffer.contents b

(* The [Never] policy still drains the buffer to the page cache once it
   grows past this, so memory use stays bounded on long runs. *)
let max_buffered_bytes = 1 lsl 18

type t = {
  path : string;
  fd : Unix.file_descr;
  policy : fsync_policy;
  pending : Buffer.t;
  mutable pending_records : int;
  mutable appended : int;
  mutable bytes : int;
  mutable fsyncs : int;
}

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let flush ?(sync = false) t =
  if Buffer.length t.pending > 0 then begin
    write_all t.fd (Buffer.contents t.pending);
    Buffer.clear t.pending;
    t.pending_records <- 0
  end;
  let want_sync = match t.policy with Never -> sync | Always | Interval _ -> true in
  if want_sync then begin
    Unix.fsync t.fd;
    t.fsyncs <- t.fsyncs + 1
  end

let open_append ~path ~fsync =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let size =
    if size >= header_len then size
    else begin
      (* Fresh file, or a crash tore even the header: restart it. *)
      Unix.ftruncate fd 0;
      write_all fd (header ());
      header_len
    end
  in
  { path; fd; policy = fsync; pending = Buffer.create 4096; pending_records = 0;
    appended = 0; bytes = size; fsyncs = 0 }

let path t = t.path

let records_appended t = t.appended

let bytes t = t.bytes

let fsyncs t = t.fsyncs

let append t payload =
  Codec.w_u32 t.pending (String.length payload);
  Codec.w_u32 t.pending (Crc32.string payload);
  Buffer.add_string t.pending payload;
  t.pending_records <- t.pending_records + 1;
  t.appended <- t.appended + 1;
  t.bytes <- t.bytes + 8 + String.length payload;
  match t.policy with
  | Always -> flush t
  | Interval n -> if t.pending_records >= max 1 n then flush t
  | Never -> if Buffer.length t.pending >= max_buffered_bytes then flush t

let close t =
  flush ~sync:true t;
  Unix.close t.fd

let discard t = Unix.close t.fd

(* Reading ----------------------------------------------------------------- *)

type read_result = { payloads : string list; valid_bytes : int; torn : bool }

let read file =
  let data = In_channel.with_open_bin file In_channel.input_all in
  let len = String.length data in
  if len < header_len then
    (* Nothing but a torn header (or an empty file): no records. *)
    { payloads = []; valid_bytes = 0; torn = len > 0 }
  else if String.sub data 0 (String.length magic) <> magic then
    Codec.corrupt "%s: bad WAL magic" file
  else begin
    let found = Char.code data.[String.length magic] in
    if found <> version then
      Codec.corrupt "%s: unsupported WAL format version %d" file found;
    let payloads = ref [] in
    let pos = ref header_len in
    let torn = ref false in
    (try
       while !pos < len do
         if len - !pos < 8 then raise Exit;
         let c = Codec.cursor (String.sub data !pos 8) in
         let plen = Codec.r_u32 c in
         let crc = Codec.r_u32 c in
         if len - !pos - 8 < plen then raise Exit;
         let payload = String.sub data (!pos + 8) plen in
         if Crc32.string payload <> crc then
           Codec.corrupt "%s: checksum mismatch in record at offset %d" file !pos;
         payloads := payload :: !payloads;
         pos := !pos + 8 + plen
       done
     with Exit -> torn := true);
    { payloads = List.rev !payloads; valid_bytes = !pos; torn = !torn }
  end

let truncate file valid_bytes = Unix.truncate file valid_bytes
