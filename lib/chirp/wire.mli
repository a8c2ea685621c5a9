(** Netstring-style field framing for the Chirp wire protocol.

    A message is a sequence of length-prefixed fields:
    ["<len>:<bytes>"] concatenated.  Fields are opaque byte strings, so
    payloads (file data, ACL text) need no escaping.  Decoding is total:
    malformed input yields [Error], never an exception — a network peer
    is untrusted input. *)

val encode : string list -> string

val decode : string -> (string list, string) result
(** Errors on truncated lengths, missing separators, or trailing
    garbage.  A length must be in the one form {!encode} writes:
    decimal digits with no sign, base prefix, digit separator or
    leading zero. *)

(** {1 Writing in place}

    For a message assembled from pieces (a checkpoint image), without
    encoding each piece to a string first. *)

val add_field : Buffer.t -> string -> unit
(** Append one field: [encode [f]] is [add_field] into an empty buffer. *)

val add_length : Buffer.t -> int -> unit
(** Append a field header alone, ["<len>:"]; the caller appends
    exactly [len] bytes of body next. *)

val framed_size : int -> int
(** The encoded size of a field whose body is [len] bytes. *)

val field_size : string -> int
(** [framed_size (String.length f)]. *)

val encode_int : int -> string
val decode_int : string -> (int, string) result
