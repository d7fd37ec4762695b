(** Scalar operator helpers shared by the row and batch expression
    compilers ({!Compile.compile_expr} is the one evaluator). NULL
    semantics are the simplified ones documented in {!Value}:
    comparisons involving NULL are false; arithmetic on NULL yields
    NULL. *)

let arith op_name fint ffloat a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> Value.Int (fint x y)
  | _ -> (
    match Value.as_float a, Value.as_float b with
    | Some x, Some y -> Value.Float (ffloat x y)
    | _ ->
      Errors.type_error "cannot apply %s to %s and %s" op_name
        (Value.to_string a) (Value.to_string b))

let compare_op op a b =
  match op with
  | Ast.Eq -> Value.Bool (Value.sql_equal a b)
  | _ when Value.is_null a || Value.is_null b -> Value.Bool false
  | _ ->
    let c = Value.compare a b in
    let r =
      match op with
      | Ast.Neq -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0
      | _ -> assert false
    in
    Value.Bool r

(* SQL LIKE: '%' matches any sequence, '_' any single character. *)
let like_match (s : string) (pattern : string) : bool =
  let n = String.length s and m = String.length pattern in
  (* memoized recursive match *)
  let memo = Hashtbl.create 16 in
  let rec go i j =
    match Hashtbl.find_opt memo (i, j) with
    | Some r -> r
    | None ->
      let r =
        if j >= m then i >= n
        else
          match pattern.[j] with
          | '%' -> go i (j + 1) || (i < n && go (i + 1) j)
          | '_' -> i < n && go (i + 1) (j + 1)
          | c -> i < n && s.[i] = c && go (i + 1) (j + 1)
      in
      Hashtbl.add memo (i, j) r;
      r
  in
  go 0 0
