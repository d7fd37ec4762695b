(** CSV import/export for tables (RFC 4180 quoting).

    On export, NULL becomes the empty field. On import, the first record
    is the header; if the table does not exist it is created with
    inferred column types (Int, then Float, then Bool, else Text; empty
    fields are NULL), otherwise values are coerced to the existing
    schema. *)

(** Render a table (header + rows) as CSV text. *)
val export : Database.t -> table:string -> string

val export_to_file : Database.t -> table:string -> path:string -> unit

(** Parse CSV text into records of fields (exposed for tests). *)
val parse_csv : string -> string list list

(** Import CSV text into [table]; returns the number of rows inserted.
    @raise Errors.Sql_error on malformed CSV, ragged records, arity
    mismatch against an existing table, uncoercible values, or a log or
    system [table] ({!Catalog.writable}). *)
val import : Database.t -> table:string -> string -> int

val import_from_file : Database.t -> table:string -> path:string -> int
