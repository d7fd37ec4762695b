(** Aggregate function computation.

    One fold (create / step / finish) computes COUNT/SUM/AVG/MIN/MAX
    with optional DISTINCT; {!compute} runs it over one group's rows.
    Matches PostgreSQL behaviour for the supported cases: COUNT ignores
    NULL arguments; SUM/AVG/MIN/MAX of an empty or all-NULL group is
    NULL; SUM over integers stays an integer. *)

(* DISTINCT arguments fold into a set ordered by [Value.compare]; the
   sorted order is observable through fold-sensitive aggregates (float
   SUM/AVG). *)
module VSet = Set.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

type acc = {
  mutable rows : int;  (** every folded row (COUNT star) *)
  mutable n : int;  (** non-NULL arguments (COUNT/AVG divisor) *)
  mutable sum : Value.t;  (** running SUM, NULL before the first value *)
  mutable mm : Value.t option;  (** running MIN/MAX, first-on-tie *)
  mutable set : VSet.t;  (** DISTINCT: the non-NULL argument set *)
}

let create () = { rows = 0; n = 0; sum = Value.Null; mm = None; set = VSet.empty }

let sum_step acc v =
  match acc, v with
  | Value.Null, v -> v
  | Value.Int a, Value.Int b -> Value.Int (a + b)
  | acc, v -> (
    match Value.as_float acc, Value.as_float v with
    | Some a, Some b -> Value.Float (a +. b)
    | _ -> Errors.type_error "SUM over non-numeric value %s" (Value.to_string v))

let step ((agg, distinct) : Ast.agg * bool) (a : acc) (v : Value.t) : unit =
  a.rows <- a.rows + 1;
  if not (Value.is_null v) then
    if distinct then a.set <- VSet.add v a.set
    else begin
      a.n <- a.n + 1;
      match agg with
      | Ast.Sum | Ast.Avg -> a.sum <- sum_step a.sum v
      | Ast.Min -> (
        match a.mm with
        | Some m when Value.compare v m >= 0 -> ()
        | _ -> a.mm <- Some v)
      | Ast.Max -> (
        match a.mm with
        | Some m when Value.compare v m <= 0 -> ()
        | _ -> a.mm <- Some v)
      | Ast.Count | Ast.Count_star -> ()
    end

(* DISTINCT finishes by folding the sorted set through the plain fold. *)
let rec finish ((agg, distinct) : Ast.agg * bool) (a : acc) : Value.t =
  match agg with
  | Ast.Count_star -> Value.Int a.rows
  | _ when distinct ->
    let plain = create () in
    VSet.iter (step (agg, false) plain) a.set;
    finish (agg, false) plain
  | Ast.Count -> Value.Int a.n
  | Ast.Sum -> a.sum
  | Ast.Avg -> (
    match a.sum with
    | Value.Int i -> Value.Float (float_of_int i /. float_of_int a.n)
    | Value.Float f -> Value.Float (f /. float_of_int a.n)
    | _ -> Value.Null)
  | Ast.Min | Ast.Max -> Option.value a.mm ~default:Value.Null

let compute (agg : Ast.agg) ~(distinct : bool) ~(eval_arg : 'row -> Value.t)
    (rows : 'row list) : Value.t =
  let spec = (agg, distinct) in
  let a = create () in
  (match agg with
  | Ast.Count_star -> List.iter (fun _ -> step spec a Value.Null) rows
  | _ -> List.iter (step spec a) (List.map eval_arg rows));
  finish spec a

(* Collect the distinct aggregate call nodes appearing in an expression. *)
let calls_in_expr (e : Ast.expr) : Ast.expr list =
  let acc = ref [] in
  Ast.iter_expr
    (function
      | Ast.Agg_call _ as call -> if not (List.mem call !acc) then acc := call :: !acc
      | _ -> ())
    e;
  List.rev !acc
