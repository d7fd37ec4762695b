(** Plan rewrites: constant folding, predicate pushdown into scans,
    equi-join-key extraction, access-path selection against the catalog's
    declared indexes, and projection pruning across joins.

    Semantics-preserving: output rows, lineage, and source tids are
    identical to compiling the binder's naive plan directly (checked by
    the differential property test). The catalog is consulted for index
    metadata only; compiled plans must still be invalidated (via
    {!Catalog.generation}) when indexes change. *)

val optimize : Catalog.t -> Plan.query -> Plan.query

(** Access-path selection for one base-table scan, given its pushed-down
    conjuncts (slot-local: [Field i] is table column [i]): the index
    probe that replaces the heap scan and the conjuncts left as filters
    over its result, or [None] to keep the heap scan. One rule reads
    every conjunct as [column op key], the key a non-NULL constant or a
    clock-pinned key ({!Plan.Exec} leaves under [+]/[-] over numeric
    literals). The tries, in order: a clock-pinned equality, a constant
    equality, the constant bounds on the first sorted-indexed column
    folded to the tightest per side (an exclusive bound wins a tie),
    then the first clock-pinned lower and upper bound on the first
    sorted-indexed column, the other bounds staying filters. *)
val select_access :
  Table.t -> Plan.pexpr list -> (Plan.access * Plan.pexpr list) option

(** Whether an expression carries an {!Plan.Exec} leaf, i.e. reads
    execution-time state (the clock) that no table version covers. *)
val has_exec : Plan.pexpr -> bool

(** Result of {!derive_delta}: the base tables the query reads
    (canonical names, sorted), and every select's per-log-slot variants
    — that slot restricted to {!Plan.Delta}, the others as written — a
    UNION policy contributing each arm's. *)
type delta_plans = { deps : string list; variants : Plan.query list }

(** Delta-plan derivation for incremental policy evaluation. Returns
    [None] unless every select of the query is monotone
    select-project-join: base-table scans only (no subqueries), no
    aggregation, ORDER BY, LIMIT or DISTINCT ON, and no clock slot (a
    select joining [clock_rel] runs in full through its clock-eliminated
    plan, {!eliminate_clock}). Projections may be arbitrary (a unified
    policy projects member messages from its constants table); variant
    results union as sets, so callers must read them with set
    semantics. *)
val derive_delta :
  Catalog.t ->
  is_log:(string -> bool) ->
  clock_rel:string ->
  Ast.query ->
  delta_plans option

(** Clock elimination over a bound (un-optimized) plan: every select
    that joins the relation [clock_rel] exactly once, each arm of a
    UNION included, drops that slot and reads the clock's cells at
    execution time ({!Plan.Exec} leaves), so predicates pinned to the
    clock become index probes once {!optimize} runs. Pins propagate
    across [Field = Field] equalities. A select keeps its clock join
    under LIMIT or DISTINCT ON, with a subquery slot, or when HAVING or
    a projection reads a clock column as a group representative. [None]
    when no select was rewritten.

    The result equals the input plan's, rows and order, while the clock
    holds exactly one row, as the engine's clock always does (SQL may
    not write it, {!Catalog.writable}). Source tids
    are numbered over the eliminated layout: slots after the clock's
    shift down by one and the clock contributes none. *)
val eliminate_clock :
  Catalog.t -> clock_rel:string -> Plan.query -> Plan.query option

(** Batch-eligibility analysis for the vectorized executor: route each
    subtree of an optimized plan to the batch pipeline or back to the
    row path. A [Select] routes to {!Plan.Route_batch} unless lineage is
    on (provenance merging stays row-at-a-time), the select is
    aggregated while source tids are tracked, or a clause the batch
    operators evaluate positionally contains a group-context expression.
    UNION sides route independently; subquery slots inside a batched
    select compile through the row path and enter through the row→batch
    adapter regardless of the route. *)
val batch_route :
  lineage:bool -> track_src:bool -> Plan.query -> Plan.route

(** {1 Kernel-shape analysis}

    Compile-time skeletons for the typed batch kernels: routing is
    static, but which kernel runs is re-decided per execution from the
    column layouts the batch binds against (a typed column can demote to
    Mixed between executions of a prepared plan). These classify the
    field/constant shape once so per-execution dispatch is a view
    inspection, with Mixed and opaque shapes falling back to the boxed
    Value kernels. *)

type cmp_shape =
  | Cmp_field_const of Ast.binop * int * Value.t
      (** [field OP literal], constant side normalized to the right *)
  | Cmp_field_field of Ast.binop * int * int  (** [field OP field] *)
  | Cmp_opaque  (** anything else: evaluate through the scalar closure *)

val cmp_shape : Plan.pexpr -> cmp_shape

(** The column index when the expression is a bare field reference —
    a join/group key eligible for the unboxed hash kernels. *)
val key_field : Plan.pexpr -> int option
