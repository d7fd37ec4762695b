(** The offline phase (§4.4): the plan every submission runs against. *)

open Relational

type t = {
  active : Policy.t list;  (** post unification / TI rewriting *)
  inter : Policy.t list;  (** policies in the interleaved loop *)
  rest : Policy.t list;  (** evaluated fully, one by one *)
  required : string list;  (** log relations any active policy references *)
  store_rels : string list;
      (** log relations a time-dependent policy references: only these
          are ever stored *)
  unified_groups : Unify.group list;
  relevance : Relevance.t;  (** the relevance index over [active] *)
  witnesses : (string * Witness.t) list;
      (** per [store_rels] relation, the union of the time-dependent
          policies' witnesses (§4.1.2) *)
  witness_bases : string list;  (** base relations the witnesses join *)
}

(** Unification (§4.2.2) and TI rewriting (§4.1.1) when their flags are
    set; with [interleaved], the interleavable policies (Πmon) go to
    [inter] (Algorithm 3), otherwise every policy is in [rest]. *)
val compute :
  Catalog.t -> unification:bool -> time_independent:bool -> interleaved:bool ->
  Policy.t list -> t
