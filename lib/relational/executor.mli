(** Query execution: thin driver over the plan pipeline
    (bind → optimize → compile → execute).

    Two orthogonal annotations can be threaded through execution:

    - {b lineage}: each output row carries the set of (relation, tid)
      input tuples that contributed to it. Aggregation, DISTINCT and
      UNION merge the lineages of the rows they combine. Implements the
      paper's [f_Provenance] log-generating function.
    - {b source tids}: each output row carries, for every top-level FROM
      item of the outermost SELECT, the tid of the row it derives from.
      Log compaction executes witness queries in this mode to mark
      retained log tuples in place. *)

type opts = Compile.opts = { lineage : bool; track_src : bool }

val default_opts : opts

type row_out = {
  values : Value.t array;
  lineage : (string * int) list;  (** empty unless [opts.lineage] *)
  src_tids : (int * int) list;
      (** (FROM-slot index, tid) pairs; empty unless [opts.track_src] *)
}

type result = { columns : string list; out_rows : row_out list }

(** A compiled plan: all name resolution, conjunct decomposition, join
    planning and closure compilation already done. Valid until the
    catalog's shape changes (see {!Catalog.generation}). *)
type compiled = Compile.t

(** Bind, optimize and compile a query. With [vectorized:true],
    batch-eligible subtrees compile through {!Compile_batch}
    (bit-identical results), and [shared] then serves their base-table
    scans plus pushed-down filters, so identical scan prefixes across
    the prepared plans of different queries materialize once per table
    version (see {!Compile_batch.compile} for which slots share).
    Without [vectorized], [shared] is ignored.
    @raise Errors.Sql_error on binding failures. *)
val prepare :
  ?opts:opts ->
  ?vectorized:bool ->
  ?shared:Compile_batch.build_side Shared_cache.t ->
  Catalog.t ->
  Ast.query ->
  compiled

(** The last step of {!prepare}: compile an already optimized plan,
    under the same [vectorized] and [shared] rules. *)
val compile :
  ?opts:opts ->
  ?vectorized:bool ->
  ?shared:Compile_batch.build_side Shared_cache.t ->
  Catalog.t ->
  Plan.query ->
  compiled

(** Like {!prepare} but skipping the optimizer: the naive reference path
    used by differential tests. *)
val prepare_unoptimized : ?opts:opts -> Catalog.t -> Ast.query -> compiled

(** Compiled delta evaluation of a delta-eligible query (see
    {!Optimizer.derive_delta}): [delta_deps] are the base tables whose
    version counters validate the engine's emptiness proof, and
    [delta_variants] the compiled per-log-slot variants of every select. *)
type delta_compiled = { delta_deps : string list; delta_variants : compiled list }

(** Derive and compile the delta variants of a query; [None] if the
    query is not delta-eligible. *)
val prepare_delta :
  ?vectorized:bool ->
  Catalog.t ->
  is_log:(string -> bool) ->
  clock_rel:string ->
  Ast.query ->
  delta_compiled option

(** Execute a compiled plan.
    @raise Errors.Sql_error on runtime failures. *)
val run_compiled : compiled -> result

(** Execute a query against the catalog ([prepare] + [run_compiled]).
    @raise Errors.Sql_error on binding or runtime failures. *)
val run : ?opts:opts -> Catalog.t -> Ast.query -> result

(** Execute through the un-optimized reference path. *)
val run_unoptimized : ?opts:opts -> Catalog.t -> Ast.query -> result

(** Does the query return no rows? (Policies are satisfied iff so.) *)
val is_empty : ?opts:opts -> Catalog.t -> Ast.query -> bool

(** Cumulative count of rows examined by join operators, for tests and
    benchmarks. *)
val rows_examined : int Atomic.t

(** Cumulative count of index probes executed by compiled access paths. *)
val index_probes : int Atomic.t
