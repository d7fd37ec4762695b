(** Data-manipulation statements: INSERT, DELETE, UPDATE, CREATE/DROP. *)

type outcome =
  | Rows of Executor.result  (** result of a query *)
  | Affected of int  (** row count of a DML statement *)
  | Created of string
  | Dropped of string

(** Execute one statement against the catalog. INSERT, DELETE, UPDATE
    and DROP TABLE write base relations only ({!Catalog.writable}).
    @raise Errors.Sql_error on any failure, a write to a log or system
      relation included. *)
val exec : Catalog.t -> Ast.stmt -> outcome
