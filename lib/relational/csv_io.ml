(** CSV import/export for tables.

    Lets users load their own data into a DataLawyer-wrapped database (the
    CLI's [load]) and dump tables or usage logs for offline analysis.
    Quoting follows RFC 4180: fields containing commas, quotes or
    newlines are double-quoted with [""] escaping. On import, column
    types are inferred (Int ⊂ Float; [true]/[false] as Bool; else Text)
    unless the table already exists, in which case values are coerced to
    its schema. *)

let quote_field s =
  let needs =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c -> if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

(* Render a value for CSV; NULL becomes the empty field. *)
let field_of_value = function
  | Value.Null -> ""
  | v -> quote_field (Value.to_string v)

let export (db : Database.t) ~(table : string) : string =
  let t = Database.table db table in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (String.concat "," (List.map quote_field (Schema.column_names (Table.schema t))));
  Buffer.add_char buf '\n';
  Table.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat ","
           (List.map field_of_value (Array.to_list (Row.cells row))));
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

let export_to_file db ~table ~path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (export db ~table))

(* Parsing ---------------------------------------------------------------- *)

(* Split CSV text into records of fields, honoring quoted fields. *)
let parse_csv (text : string) : string list list =
  let records = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let n = String.length text in
  let finish_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let finish_record () =
    finish_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let rec plain i =
    if i >= n then (if Buffer.length buf > 0 || !fields <> [] then finish_record ())
    else
      match text.[i] with
      | ',' ->
        finish_field ();
        plain (i + 1)
      | '\r' when i + 1 < n && text.[i + 1] = '\n' ->
        finish_record ();
        plain (i + 2)
      | '\n' | '\r' ->
        finish_record ();
        plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted i =
    if i >= n then Errors.parse_error "CSV: unterminated quoted field"
    else
      match text.[i] with
      | '"' when i + 1 < n && text.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' -> plain (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  plain 0;
  List.rev !records

(* Type inference for one column of textual fields. *)
let infer_type (fields : string list) : Ty.t =
  let non_empty = List.filter (fun s -> s <> "") fields in
  let all p = non_empty <> [] && List.for_all p non_empty in
  if all (fun s -> int_of_string_opt s <> None) then Ty.Int
  else if all (fun s -> float_of_string_opt s <> None) then Ty.Float
  else if
    all (fun s ->
        match String.lowercase_ascii s with "true" | "false" -> true | _ -> false)
  then Ty.Bool
  else Ty.Text

let value_of_field (ty : Ty.t) (s : string) : Value.t =
  if s = "" then Value.Null
  else
    match ty with
    | Ty.Int -> (
      match int_of_string_opt s with
      | Some i -> Value.Int i
      | None -> Errors.type_error "CSV: %S is not an INT" s)
    | Ty.Float -> (
      match float_of_string_opt s with
      | Some f -> Value.Float f
      | None -> Errors.type_error "CSV: %S is not a FLOAT" s)
    | Ty.Bool -> (
      match String.lowercase_ascii s with
      | "true" | "t" | "1" -> Value.Bool true
      | "false" | "f" | "0" -> Value.Bool false
      | _ -> Errors.type_error "CSV: %S is not a BOOL" s)
    | Ty.Text -> Value.Str s

(* Import CSV text (first record = header) into [table]; creates the
   table with inferred column types when absent. Returns the number of
   rows inserted. *)
let import (db : Database.t) ~(table : string) (text : string) : int =
  match parse_csv text with
  | [] -> Errors.parse_error "CSV: empty input"
  | header :: rows ->
    let ncols = List.length header in
    List.iteri
      (fun i r ->
        if List.length r <> ncols then
          Errors.parse_error "CSV: record %d has %d fields, expected %d" (i + 1)
            (List.length r) ncols)
      rows;
    let t =
      match Catalog.writable (Database.catalog db) table with
      | Some t -> t
      | None ->
        let types =
          List.mapi (fun ci _ -> infer_type (List.map (fun r -> List.nth r ci) rows)) header
        in
        Catalog.create_table (Database.catalog db) ~name:table
          ~schema:(Schema.make (List.combine header types))
    in
    let schema = Table.schema t in
    if Schema.arity schema <> ncols then
      Errors.runtime_error "CSV: table %s has %d columns, file has %d" table
        (Schema.arity schema) ncols;
    List.iter
      (fun r ->
        let cells =
          Array.of_list
            (List.mapi
               (fun ci field -> value_of_field (Schema.column schema ci).Schema.ty field)
               r)
        in
        ignore (Table.insert t cells))
      rows;
    List.length rows

let import_from_file db ~table ~path =
  import db ~table (In_channel.with_open_text path In_channel.input_all)
