(** Wire protocol of the policy-admission server.

    A frame is the payload's byte length in decimal ASCII, one [\n],
    then exactly that many payload bytes. Payloads are line-oriented
    text; requests and responses below are their parsed forms. Every
    function here is pure, so the protocol round-trips in tests without
    sockets. *)

(** Version token a client must present in HELLO. *)
val version : string

(** Default ceiling on a single frame's payload, in bytes (1 MiB). *)
val default_max_payload : int

(** {1 Error codes} carried by [Err] replies and parse failures:
    [bad-frame] (malformed length prefix), [too-large] (payload above
    the ceiling), [bad-verb], [bad-arg], [auth-required] (SUBMIT before
    AUTH), [auth-rebind] (AUTH to a different uid on a bound session),
    [state] (verb illegal in the session's state), [sql] (SUBMIT
    payload failed to parse), [internal], [shutdown] (server is
    draining). *)

val err_bad_frame : string
val err_too_large : string
val err_bad_verb : string
val err_bad_arg : string
val err_auth_required : string
val err_auth_rebind : string
val err_state : string
val err_sql : string
val err_internal : string
val err_shutdown : string

type request =
  | Hello of string  (** protocol version token *)
  | Auth of int  (** bind the session to a uid *)
  | Submit of string  (** candidate query SQL *)
  | Stats
  | Ping
  | Quit

type response =
  | Hello_ok of string
  | Auth_ok of int
  | Accepted of { seq : int; rows : int }
      (** admitted: admission sequence number and result-row count *)
  | Rejected of { seq : int; messages : string list }
  | Stats_reply of (string * string) list
  | Pong
  | Bye
  | Err of { code : string; message : string }

(** Parse one request payload. [Error (code, message)] uses the codes
    above and is suitable for an [Err] reply. *)
val parse_request : string -> (request, string * string) result

val render_request : request -> string
val parse_response : string -> (response, string * string) result
val render_response : response -> string

(** Prefix [payload] with its framing header. *)
val encode_frame : string -> string

(** Streaming frame decoder over a byte stream. Feed it chunks as they
    arrive; [next] yields complete payloads. A framing error is sticky:
    once a stream is undecodable there is no resynchronisation point, so
    the connection must be dropped. *)
module Decoder : sig
  type t

  val create : ?max_payload:int -> unit -> t
  val feed : t -> string -> unit

  val next : t -> [ `Frame of string | `Awaiting | `Error of string ]
  (** [`Frame payload] consumes one frame (call again — more may be
      buffered); [`Awaiting] needs more input; [`Error code] is a
      sticky framing failure. *)
end
