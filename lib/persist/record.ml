open Relational

type policy_rec = { name : string; source : string; active_from : int }

type t =
  | Commit of {
      clock : int;
      expired : (string * int list) list;
      increments : (string * Value.t array list) list;
    }
  | Add_policy of policy_rec
  | Remove_policy of string

let w_increments b increments =
  Codec.w_u32 b (List.length increments);
  List.iter
    (fun (rel, rows) ->
      Codec.w_string b rel;
      Codec.w_rows b rows)
    increments

let r_increments c =
  let n = Codec.r_u32 c in
  if n > Codec.remaining c then
    Codec.corrupt "increment count %d exceeds remaining payload" n;
  List.init n (fun _ ->
      let rel = Codec.r_string c in
      let rows = Codec.r_rows c in
      (rel, rows))

(* Positions are u32s in strictly ascending order. *)
let r_positions c =
  let k = Codec.r_u32 c in
  if k > Codec.remaining c / 4 then
    Codec.corrupt "position count %d exceeds remaining payload" k;
  let prev = ref (-1) in
  List.init k (fun _ ->
      let p = Codec.r_u32 c in
      if p <= !prev then Codec.corrupt "position %d after %d is not ascending" p !prev;
      prev := p;
      p)

let encode r =
  let b = Buffer.create 256 in
  (match r with
  | Commit { clock; expired = []; increments } ->
    Codec.w_u8 b 1;
    Codec.w_i64 b clock;
    w_increments b increments
  | Commit { clock; expired; increments } ->
    Codec.w_u8 b 4;
    Codec.w_i64 b clock;
    Codec.w_u32 b (List.length expired);
    List.iter
      (fun (rel, positions) ->
        Codec.w_string b rel;
        Codec.w_u32 b (List.length positions);
        List.iter (Codec.w_u32 b) positions)
      expired;
    w_increments b increments
  | Add_policy { name; source; active_from } ->
    Codec.w_u8 b 2;
    Codec.w_string b name;
    Codec.w_string b source;
    Codec.w_i64 b active_from
  | Remove_policy name ->
    Codec.w_u8 b 3;
    Codec.w_string b name);
  Buffer.contents b

let decode s =
  let c = Codec.cursor s in
  let r =
    match Codec.r_u8 c with
    | 1 ->
      let clock = Codec.r_i64 c in
      let increments = r_increments c in
      Commit { clock; expired = []; increments }
    | 4 ->
      let clock = Codec.r_i64 c in
      let n = Codec.r_u32 c in
      if n > Codec.remaining c then
        Codec.corrupt "expired relation count %d exceeds remaining payload" n;
      let expired =
        List.init n (fun _ ->
            let rel = Codec.r_string c in
            let positions = r_positions c in
            (rel, positions))
      in
      let increments = r_increments c in
      Commit { clock; expired; increments }
    | 2 ->
      let name = Codec.r_string c in
      let source = Codec.r_string c in
      let active_from = Codec.r_i64 c in
      Add_policy { name; source; active_from }
    | 3 -> Remove_policy (Codec.r_string c)
    | k -> Codec.corrupt "unknown record kind %d" k
  in
  Codec.expect_end c;
  r

let pp ppf = function
  | Commit { clock; expired; increments } ->
    Format.fprintf ppf "commit@%d {%s}" clock
      (String.concat "; "
         (List.map
            (fun (rel, positions) -> Printf.sprintf "%s:-%d" rel (List.length positions))
            expired
         @ List.map
             (fun (rel, rows) -> Printf.sprintf "%s:+%d" rel (List.length rows))
             increments))
  | Add_policy p -> Format.fprintf ppf "add_policy %s (from %d)" p.name p.active_from
  | Remove_policy n -> Format.fprintf ppf "remove_policy %s" n
