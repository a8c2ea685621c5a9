(** The dedup journal: completed request ids, each with the time it
    completed and its encoded response, so a retry carrying the same id
    gets the response back instead of a second execution.

    Every operation costs what it touches, not what has accumulated:
    lookups and inserts are logarithmic, expiry visits only the entries
    it evicts (they are held in completion-time order as well as by id),
    and the checkpoint image is written from fragments encoded once, at
    insert, in id order, with no sort.  The image bytes are those of
    [Wire.encode] over [rid; at; response] triples sorted by id. *)

type t

val create : unit -> t

val size : t -> int

val copy : t -> t
(** An independent journal with the same entries, in O(1): nothing done
    to one afterwards shows in the other. *)

val find : t -> string -> string option
(** The recorded response for a request id. *)

val add : t -> string -> at:int64 -> string -> unit
(** [add t rid ~at response] records (or replaces) [rid]'s entry.
    [at] need not be monotone: an event-driven server records a
    parked operation at its admission time. *)

val expire : t -> now:int64 -> window:int64 -> int
(** Drop every entry with [now - at > window]; returns how many. *)

val clear : t -> unit

val image_size : t -> int
(** Bytes {!add_image} writes. *)

val add_image : t -> Buffer.t -> unit
(** Append the journal image: every entry's
    [Wire.encode [rid; Int64.to_string at; response]], in id order. *)

val restore : t -> string -> unit
(** Add every well-formed [rid; at; response] triple of an image (as
    decoded by [Wire.decode]); a triple whose time does not parse is
    skipped, an undecodable image adds nothing. *)
