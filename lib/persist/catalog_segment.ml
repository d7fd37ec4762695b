let magic = "DLCAT"
let version = 1

let encode policies =
  let b = Buffer.create 4096 in
  Codec.w_u32 b (List.length policies);
  List.iter
    (fun (p : Record.policy_rec) ->
      Codec.w_string b p.name;
      Codec.w_string b p.source;
      Codec.w_i64 b p.active_from)
    policies;
  Buffer.contents b

let decode payload =
  let c = Codec.cursor payload in
  let np = Codec.r_u32 c in
  if np > Codec.remaining c then Codec.corrupt "policy count %d too large" np;
  let policies =
    List.init np (fun _ ->
        let name = Codec.r_string c in
        let source = Codec.r_string c in
        let active_from = Codec.r_i64 c in
        { Record.name; source; active_from })
  in
  Codec.expect_end c;
  policies

let write path policies = Framed.write path ~magic ~version (encode policies)
let read path = decode (Framed.read path ~what:"catalog" ~magic ~version)
