(** Runtime values.

    The engine is dynamically typed at execution time: every cell is a
    [Value.t]. The binder checks types statically where it can, but
    arithmetic promotes [Int] to [Float] as needed, mirroring the behaviour
    of the SQL engines the paper targets.

    Two equalities are defined here, once each. {e Grouping identity}
    ({!equal}, {!hash}, {!Key}) is [compare = 0]: NULL groups with NULL,
    NaN with NaN, [-0.0] with [0.0], integral floats with their ints.
    {e SQL [=]} ({!sql_equal}) is the same relation except that NULL
    matches nothing — comparisons involving NULL are false, as in a WHERE
    clause. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

let type_of = function
  | Null -> None
  | Bool _ -> Some Ty.Bool
  | Int _ -> Some Ty.Int
  | Float _ -> Some Ty.Float
  | Str _ -> Some Ty.Text

let is_null = function Null -> true | Bool _ | Int _ | Float _ | Str _ -> false

(* Exact [Int]-versus-[Float] order, NaN placed as [Float.compare] does
   (below every number). Rounding the int through [float_of_int] would
   make [Int (2^53 + 1)] equal [Float 2^53], and equality intransitive. *)
let compare_int_float (i : int) (f : float) : int =
  if Float.is_nan f then 1
  else if f >= 0x1p62 then -1
  else if f < -0x1p62 then 1
  else
    (* [f] is within int range: compare integral parts exactly, then
       let the fraction break the tie. *)
    let t = Float.trunc f in
    let c = Int.compare i (int_of_float t) in
    if c <> 0 then c else Float.compare 0. (f -. t)

(* Total order for ORDER BY and sort-based operators: Null < Bool < numbers
   < Str; numbers compare numerically (and exactly) across Int/Float. *)
let compare (a : t) (b : t) =
  let rank = function
    | Null -> 0
    | Bool _ -> 1
    | Int _ | Float _ -> 2
    | Str _ -> 3
  in
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> - compare_int_float y x
  | Str x, Str y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

(* Grouping identity: exactly [compare a b = 0], written out because
   hash tables call it per probe. DISTINCT, GROUP BY, UNION, dedup and
   hash-index buckets use it. *)
let equal (a : t) (b : t) =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> compare_int_float x y = 0
  | Str x, Str y -> String.equal x y
  | _ -> false

(* SQL [=]: NULL on either side never matches. Predicates, hash-join
   keys and index probes mean this. *)
let sql_equal (a : t) (b : t) = (not (is_null a || is_null b)) && equal a b

(* [Hashtbl.hash] maps every NaN to one hash and -0.0 to the hash of
   0.0; hashing ints through their float image makes [Int 2] and
   [Float 2.] collide. (Past 2^53 unequal neighbours collide too, which
   a hash may do.) *)
let hash (v : t) =
  match v with
  | Null -> 0
  | Bool b -> if b then 1 else 2
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* SQL-facing truthiness: only Bool true is true. *)
let to_bool = function Bool b -> b | _ -> false

let to_string = function
  | Null -> "NULL"
  | Bool true -> "true"
  | Bool false -> "false"
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else string_of_float f
  | Str s -> s

(* SQL literal syntax, suitable for re-parsing. *)
let to_sql = function
  | Null -> "NULL"
  | Bool true -> "TRUE"
  | Bool false -> "FALSE"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f
  | Str s ->
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '\'';
    String.iter
      (fun c ->
        if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '\'';
    Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* Value tuples under elementwise grouping identity, for DISTINCT /
   GROUP BY / UNION / hash-join tables keyed on row arrays directly. *)
module Key = struct
  type nonrec t = t array

  let equal (a : t) (b : t) =
    Array.length a = Array.length b
    &&
    let rec go i = i >= Array.length a || (equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash (a : t) =
    Array.fold_left (fun acc v -> (acc * 31) + hash v) 17 a

  let has_null (a : t) = Array.exists is_null a

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  let dedup (key : 'a -> t) (rows : 'a list) : 'a list =
    let seen = Tbl.create 16 in
    List.filter
      (fun r ->
        let k = key r in
        if Tbl.mem seen k then false
        else begin
          Tbl.add seen k ();
          true
        end)
      rows
end

(* Numeric coercions used by the expression evaluator. *)
let as_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Bool _ | Str _ -> None
