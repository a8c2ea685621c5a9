(** A write-ahead log on a simulated stable-storage device.

    The device holds two things: the {e latest checkpoint image} (an
    opaque blob, replaced atomically) and an {e append-only record log}
    of everything since that checkpoint.  Records are length-prefixed
    and checksummed:

    {v  "IDBX" <len:8 hex> <md5:32 hex> <payload bytes>  v}

    Appends are buffered; {!sync} makes every buffered record durable.
    The durability contract is the real one: a {!crash} may damage only
    bytes that were never synced — lose whole unsynced records from the
    end, tear the last one mid-record, flip bits in the unsynced suffix
    — plus, even on a fully synced log, append a torn fragment of a
    write that was in flight when the power died.  Damage is drawn from
    a seeded {!Idbox_net.Fault.storage_profile}, so crashes replay
    byte-identically.

    {!recover} parses the device from the start, stops at the first
    record whose framing or checksum fails (framing is lost beyond it),
    truncates the garbage, and reports what was discarded.  A synced
    record therefore always survives; a torn or corrupt tail is never
    returned as data. *)

type t

val create :
  ?seed:int64 -> ?profile:Idbox_net.Fault.storage_profile -> unit -> t
(** A fresh, empty device.  [profile] (default {!Idbox_net.Fault.calm_storage})
    governs crash damage; [seed] (default 0) seeds its random stream. *)

val append : t -> string -> unit
(** Append one record (buffered, {e not} yet durable). *)

val sync : t -> unit
(** Make every appended record durable: bytes at or before this point
    survive any {!crash}. *)

val records : t -> int
(** Records currently in the log (appended since the last checkpoint,
    synced or not). *)

val synced_records : t -> int
(** Records covered by the last {!sync}. *)

val log_bytes : t -> int
(** Size of the record log in bytes (excluding the checkpoint image). *)

val appends : t -> int
(** Total records ever appended (accounting; survives checkpoints). *)

val checkpoint : t -> string -> unit
(** Atomically replace the checkpoint image with [blob] and truncate
    the record log.  Modelled as atomic (write-temp + rename): a crash
    never observes half a checkpoint. *)

val checkpoint_deferred : t -> string Lazy.t -> unit
(** {!checkpoint} with the image encoded on first read, by
    {!checkpoint_image} or {!recover}.  The caller builds [image] from
    values that later mutations cannot change, so the bytes are those
    an eager {!checkpoint} at this point would have written. *)

val checkpoint_image : t -> string option
(** The current checkpoint image, if any (forcing a deferred one). *)

val crash : t -> unit
(** Apply seeded crash damage per the device's storage profile.  Only
    the unsynced suffix can lose or corrupt data; a fully synced log
    can at worst gain a torn fragment of an in-flight record, which
    {!recover} discards by checksum. *)

type recovery = {
  rc_checkpoint : string option;  (** Latest checkpoint image. *)
  rc_records : string list;
      (** Valid record payloads after that checkpoint, in append order. *)
  rc_torn_records : int;
      (** Records discarded because framing or checksum failed. *)
  rc_torn_bytes : int;  (** Bytes of garbage truncated from the tail. *)
}

val logged_records : t -> string list
(** The payloads {!recover} would return now, in append order, without
    truncating anything or changing what counts as synced. *)

val recover : t -> recovery
(** Parse the device, truncate any torn tail, and return the surviving
    state.  After recovery the device continues from the valid prefix:
    subsequent {!append}s extend the recovered log. *)

(** {1 Segment export / import}

    Geo replication ships a contiguous run of records as one blob: the
    concatenation of their IDBX frames, each carrying its own md5. *)

val frame_segment : string list -> string
(** Frame each payload and concatenate — the wire form of a shipped
    WAL segment. *)

val parse_segment : string -> (string list, [ `Damaged ]) result
(** Parse a shipped segment back into payloads.  Strict where
    {!recover} is lenient: the blob must consist of exactly intact,
    checksum-valid frames or the whole segment is rejected (the shipper
    re-sends it) — a partially applied segment would corrupt the
    replica's LSN accounting. *)
