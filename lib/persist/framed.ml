let header_len ~magic = String.length magic + 2 + 8

let write_fsyncs = 2

let write path ~magic ~version payload =
  let b = Buffer.create (String.length payload + header_len ~magic) in
  Buffer.add_string b magic;
  Codec.w_u8 b version;
  Codec.w_u8 b 0;
  Codec.w_u32 b (String.length payload);
  Codec.w_u32 b (Crc32.string payload);
  Buffer.add_string b payload;
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let s = Buffer.contents b in
      let rec go off =
        if off < String.length s then
          go (off + Unix.write_substring fd s off (String.length s - off))
      in
      go 0;
      Unix.fsync fd);
  Unix.rename tmp path;
  (* Make the rename itself durable. *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | dirfd ->
    Fun.protect ~finally:(fun () -> Unix.close dirfd) (fun () ->
        try Unix.fsync dirfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let read path ~what ~magic ~version =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let header_len = header_len ~magic in
  if String.length data < header_len then
    Codec.corrupt "%s: %s shorter than its header" path what;
  if String.sub data 0 (String.length magic) <> magic then
    Codec.corrupt "%s: bad %s magic" path what;
  let found = Char.code data.[String.length magic] in
  if found <> version then
    Codec.corrupt "%s: unsupported %s format version %d (this build reads version %d)"
      path what found version;
  let c = Codec.cursor (String.sub data (String.length magic + 2) 8) in
  let plen = Codec.r_u32 c in
  let crc = Codec.r_u32 c in
  if String.length data <> header_len + plen then
    Codec.corrupt "%s: %s payload length mismatch (%d vs %d)" path what
      (String.length data - header_len)
      plen;
  let payload = String.sub data header_len plen in
  if Crc32.string payload <> crc then
    Codec.corrupt "%s: %s checksum mismatch" path what;
  payload
