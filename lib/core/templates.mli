(** Policy templates (§6).

    Constructors for every restriction type of the paper's Table 1
    survey; each returns policy SQL ready for {!Engine.add_policy}.
    Instantiating one template for many subjects yields policies the
    engine unifies (§4.2.2) into a single policy automatically. *)

(** Who a template applies to. [Group] resolves through a [(uid, gid)]
    membership relation. *)
type subject = Everyone | User of int | Group of { table : string; gid : string }

(** Quote a string as a SQL literal (exposed for custom templates). *)
val sql_string : string -> string

(** Table 1 P1 (Navteq): prohibit combining [relation] with any other
    relation in one query. Time-independent. *)
val no_overlay : relation:string -> ?message:string -> unit -> string

(** Table 2 P2: [relation] may only be combined with the [allowed]
    relations. *)
val no_overlay_except :
  relation:string ->
  allowed:string list ->
  ?subject:subject ->
  ?message:string ->
  unit ->
  string

(** Table 1 P4 (Twitter/Foursquare): at most [max_calls] queries per user
    within [window] ticks. *)
val rate_limit :
  max_calls:int -> window:int -> ?subject:subject -> ?message:string -> unit -> string

(** Table 1 P3 (MS Translator): per-user cap on result tuples derived
    from [relation] over a sliding window. *)
val volume_quota :
  relation:string ->
  max_tuples:int ->
  window:int ->
  ?subject:subject ->
  ?message:string ->
  unit ->
  string

(** Table 1 P5 / Example 3.1 (MIMIC): no answer tuple may be contributed
    to by fewer than [k] distinct tuples of [relation]. *)
val k_anonymity : relation:string -> k:int -> ?message:string -> unit -> string

(** Table 1 P7 (Yelp): joins and unions fine; aggregating [relation]
    (optionally only its [column]) is prohibited. *)
val no_aggregation :
  relation:string -> ?column:string -> ?message:string -> unit -> string

(** Table 1 P2 (Kindle): at most [max_users] distinct users of [subject]
    may touch [relation] within [window] ticks (Example 3.2's P2b). *)
val group_license :
  relation:string ->
  max_users:int ->
  window:int ->
  ?subject:subject ->
  ?message:string ->
  unit ->
  string

(** [subject] may not touch [relation] at all. *)
val no_access :
  relation:string -> ?subject:subject -> ?message:string -> unit -> string

(** Table 2 P6: the same input tuple of [relation] may be used at most
    [max_uses] times within [window] ticks. *)
val reuse_cap :
  relation:string ->
  max_uses:int ->
  window:int ->
  ?subject:subject ->
  ?message:string ->
  unit ->
  string

(** One instance of a constructor per uid, named ["<prefix>_u<uid>"]. All
    instances share one shape ({!Policy.t.shape}), so the engine unifies
    them into a single template + constants-table policy. *)
val per_user :
  name_prefix:string -> uids:int list -> (subject:subject -> string) ->
  (string * string) list
