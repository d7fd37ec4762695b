(** Lineage (which-provenance) sets.

    A lineage is a set of [(input_relation, input_tid)] pairs — the "set
    of contributing tuples" provenance the paper adopts from Cui et al.
    (called lineage in [43]). The executor threads a lineage through every
    operator when tracking is enabled; [Off] makes tracking free for the
    common non-provenance path.

    The set is kept unnormalized: {!union} joins two lineages under a
    [Cat] node, so a join or a DISTINCT merge allocates one node and
    compares nothing. Duplicates are removed when the set is read
    ({!to_list}, {!cardinal}) or grouped ({!union_all}): the leaves are
    gathered into one array, sorted and deduplicated there, so a
    grouped output row holds each contributing tuple once, however many
    joined rows carried it. *)

type elt = string * int

type t =
  | Off
  | Empty
  | Leaf of string * int
  | Cat of t * t  (** neither side [Off] nor [Empty] *)
  | Flat of elt array  (** sorted, duplicate-free, two or more elements *)

let off = Off

let empty = Empty

let singleton rel tid = Leaf (rel, tid)

let union a b =
  match a, b with
  | Off, _ | _, Off -> Off
  | Empty, x | x, Empty -> x
  | _ -> Cat (a, b)

(* [n] plus the leaves under [t], duplicates counted. Like {!fill}, it
   recurses on the right and loops on the left: the DISTINCT and UNION
   merges build left-deep chains. *)
let rec size n = function
  | Off | Empty -> n
  | Leaf _ -> n + 1
  | Flat a -> n + Array.length a
  | Cat (a, b) -> size (size n b) a

(* Write the leaves under [t] into [dst] from [pos]; returns the next
   free position. *)
let rec fill dst pos t =
  match t with
  | Off | Empty -> pos
  | Leaf (rel, tid) ->
    dst.(pos) <- (rel, tid);
    pos + 1
  | Flat a ->
    Array.blit a 0 dst pos (Array.length a);
    pos + Array.length a
  | Cat (a, b) -> fill dst (fill dst pos b) a

(* The order of {!to_list}. A relation's leaves share the scan's name
   string, so the physical test spares most string comparisons. *)
let compare_elt ((r1, t1) : elt) ((r2, t2) : elt) =
  if r1 == r2 then Int.compare t1 t2
  else match String.compare r1 r2 with 0 -> Int.compare t1 t2 | c -> c

(* Gather the leaves under [xs] into one array, sort it and drop
   duplicates. *)
let gather xs : t =
  let n = List.fold_left size 0 xs in
  if n = 0 then Empty
  else begin
    let dst = Array.make n ("", 0) in
    ignore (List.fold_left (fill dst) 0 xs);
    Array.sort compare_elt dst;
    let k = ref 1 in
    for i = 1 to n - 1 do
      if compare_elt dst.(i) dst.(!k - 1) <> 0 then begin
        dst.(!k) <- dst.(i);
        incr k
      end
    done;
    if !k = 1 then Leaf (fst dst.(0), snd dst.(0))
    else Flat (if !k = n then dst else Array.sub dst 0 !k)
  end

(* The canonical form: anything but [Cat]. *)
let normalize = function Cat _ as t -> gather [ t ] | t -> t

let union_all = function
  | [] -> Empty
  | [ x ] -> normalize x
  | xs when List.exists (function Off -> true | _ -> false) xs -> Off
  | xs -> gather xs

let to_list t =
  match normalize t with
  | Off | Empty | Cat _ -> []
  | Leaf (rel, tid) -> [ (rel, tid) ]
  | Flat a -> Array.to_list a

let cardinal t =
  match normalize t with
  | Off | Empty | Cat _ -> 0
  | Leaf _ -> 1
  | Flat a -> Array.length a

let is_tracking = function Off -> false | Empty | Leaf _ | Cat _ | Flat _ -> true
