open Relational

type rel = { schema : (string * Ty.t) list; rows : Value.t array list }

type state = {
  clock : int;
  policies : Record.policy_rec list;
  relations : (string * rel) list;
}

let empty = { clock = 0; policies = []; relations = [] }

(* Serialization ----------------------------------------------------------- *)

let magic = "DLSNAP"

(* Version 1 also carried the policy set; version 2 names a catalog. *)
let version = 2

let encode ~catalog state =
  let b = Buffer.create 4096 in
  Codec.w_i64 b state.clock;
  Codec.w_i64 b catalog;
  Codec.w_u32 b (List.length state.relations);
  List.iter
    (fun (name, r) ->
      Codec.w_string b name;
      Codec.w_u32 b (List.length r.schema);
      List.iter
        (fun (col, ty) ->
          Codec.w_string b col;
          Codec.w_ty b ty)
        r.schema;
      Codec.w_rows b r.rows)
    state.relations;
  Buffer.contents b

let decode payload =
  let c = Codec.cursor payload in
  let clock = Codec.r_i64 c in
  let catalog = Codec.r_i64 c in
  let nr = Codec.r_u32 c in
  if nr > Codec.remaining c then Codec.corrupt "relation count %d too large" nr;
  let relations =
    List.init nr (fun _ ->
        let name = Codec.r_string c in
        let nc = Codec.r_u32 c in
        if nc > Codec.remaining c then Codec.corrupt "column count %d too large" nc;
        let schema =
          List.init nc (fun _ ->
              let col = Codec.r_string c in
              let ty = Codec.r_ty c in
              (col, ty))
        in
        let rows = Codec.r_rows c in
        (name, { schema; rows }))
  in
  Codec.expect_end c;
  (catalog, { clock; policies = []; relations })

let header_len = Framed.header_len ~magic

let write path ~catalog state =
  Framed.write path ~magic ~version (encode ~catalog state)

let read path = decode (Framed.read path ~what:"snapshot" ~magic ~version)
