(** Query execution: thin driver over the plan pipeline.

    [run] is bind ({!Plan.of_query}) → rewrite ({!Optimizer.optimize}) →
    compile ({!Compile.compile}) → execute. The expensive per-query work —
    scope construction, conjunct decomposition, join-key derivation,
    closure compilation — happens in [prepare]; executing a prepared plan
    does none of it, which is what the engine's prepared-plan cache
    exploits on the policy hot path.

    [prepare_unoptimized] skips the optimizer, giving a naive reference
    executor for differential testing. *)

type opts = Compile.opts = { lineage : bool; track_src : bool }

let default_opts = Compile.default_opts

type row_out = {
  values : Value.t array;
  lineage : (string * int) list;
  src_tids : (int * int) list;
}

type result = { columns : string list; out_rows : row_out list }

type compiled = Compile.t

let compile ?(opts = default_opts) ?(vectorized = false) ?shared
    (cat : Catalog.t) (plan : Plan.query) : compiled =
  if vectorized then Compile_batch.compile cat ?shared opts plan
  else Compile.compile cat opts plan

let prepare ?opts ?vectorized ?shared (cat : Catalog.t) (q : Ast.query) :
    compiled =
  compile ?opts ?vectorized ?shared cat
    (Optimizer.optimize cat (Plan.of_query cat q))

let prepare_unoptimized ?(opts = default_opts) (cat : Catalog.t) (q : Ast.query)
    : compiled =
  Compile.compile cat opts (Plan.of_query cat q)

type delta_compiled = { delta_deps : string list; delta_variants : compiled list }

let prepare_delta ?vectorized (cat : Catalog.t) ~is_log ~clock_rel
    (q : Ast.query) : delta_compiled option =
  Option.map
    (fun (d : Optimizer.delta_plans) ->
      {
        delta_deps = d.Optimizer.deps;
        delta_variants = List.map (compile ?vectorized cat) d.Optimizer.variants;
      })
    (Optimizer.derive_delta cat ~is_log ~clock_rel q)

let run_compiled (c : compiled) : result =
  let rows = c.Compile.exec () in
  {
    columns = Array.to_list c.Compile.cols;
    out_rows =
      List.map
        (fun (r : Compile.arow) ->
          {
            values = r.Compile.vals;
            lineage = Lineage.to_list r.Compile.lin;
            src_tids = r.Compile.src;
          })
        rows;
  }

let run ?(opts = default_opts) cat q = run_compiled (prepare ~opts cat q)

let run_unoptimized ?(opts = default_opts) cat q =
  run_compiled (prepare_unoptimized ~opts cat q)

let is_empty ?opts cat q = (run ?opts cat q).out_rows = []

let rows_examined = Compile.rows_examined

let index_probes = Compile.index_probes
