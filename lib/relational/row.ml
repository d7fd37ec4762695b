(** Stored rows: a tuple of cells plus a table-unique tuple id.

    Tuple ids ([tid]) are assigned by the owning {!Table} in insertion
    order and are never reused. They serve two roles in the reproduction:
    they are the [itid]/[otid] values of the paper's [Provenance] usage log
    and they let log compaction mark witness tuples in place. *)

type t = { tid : int; cells : Value.t array }

let tid r = r.tid

let cells r = r.cells

let cell r i = r.cells.(i)

let arity r = Array.length r.cells

let make ~tid cells = { tid; cells }

let pp ppf r =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Value.pp)
    (Array.to_list r.cells)
