(** The simulated system call interface: the boundary on which identity
    boxing operates.

    A process performs a {!request}; the kernel (possibly after giving a
    tracer the chance to rewrite it — the heart of interposition) returns
    a {!result}.  The variant is deliberately close to the Unix interface
    Parrot traps: identity boxing must confront the whole surface, not a
    convenient subset (Garfinkel pitfall #3). *)

type whence =
  | Seek_set
  | Seek_cur
  | Seek_end

type request =
  | Getpid
  | Getppid
  | Getuid
  | Get_user_name
      (** The paper's new call: the high-level identity of the caller. *)
  | Getcwd
  | Chdir of string
  | Open of { path : string; flags : Idbox_vfs.Fs.open_flags; mode : int }
  | Close of int
  | Read of { fd : int; len : int }
  | Write of { fd : int; data : string }
  | Pread of { fd : int; off : int; len : int }
  | Pwrite of { fd : int; off : int; data : string }
  | Lseek of { fd : int; off : int; whence : whence }
  | Stat of string
  | Lstat of string
  | Fstat of int
  | Mkdir of { path : string; mode : int }
  | Rmdir of string
  | Unlink of string
  | Link of { target : string; path : string }
  | Symlink of { target : string; path : string }
  | Readlink of string
  | Rename of { src : string; dst : string }
  | Readdir of string
  | Chmod of { path : string; mode : int }
  | Chown of { path : string; owner : int }
  | Truncate of { path : string; len : int }
  | Pipe
      (** Create a pipe; returns a read fd and a write fd.  Children
          inherit open descriptors, so pipes connect process trees as on
          Unix; reads on an empty pipe with live writers block. *)
  | Spawn of { path : string; args : string list }
      (** Create a child process running the executable at [path]
          (spawn = fork+exec; continuations cannot be duplicated, and no
          experiment in the paper needs bare [fork]). *)
  | Waitpid of int  (** [-1] waits for any child. *)
  | Exit of int
  | Kill of { pid : int; signal : int }
  | Getenv of string
  | Setenv of { name : string; value : string }
  | Getacl of string
      (** Identity-box call: read the ACL governing a path. *)
  | Setacl of { path : string; entry : string }
      (** Identity-box call: add/replace one ACL entry (needs [a]). *)
  | Compute of int64
      (** Not a system call: user-mode CPU burn of the given
          nanoseconds.  Never trapped, never charged syscall cost. *)

type value =
  | Unit
  | Int of int
  | Str of string
  | Data of string  (** Bulk bytes, e.g. a [read] payload. *)
  | Stat_v of Idbox_vfs.Fs.stat
  | Names of string list
  | Wait_v of { pid : int; status : int }
  | Fd_pair of { rd : int; wr : int }  (** The two ends of a pipe. *)

type result = (value, Idbox_vfs.Errno.t) Stdlib.result

val name : request -> string
(** The syscall's conventional name ("open", "stat", ...), for
    accounting and diagnostics. *)

val number : request -> int
(** The call's stable sysent number in [[0, count)].  The dispatch
    table is indexed by it, so the numbering is ABI: append only. *)

val count : int
(** How many system calls exist ([number] ranges over [[0, count)]). *)

val prototypes : request list
(** One representative value per constructor, in {!number} order —
    what a sysent builder iterates to stamp out one entry per call. *)

val register_args : request -> int
(** Argument registers the call uses at the trap boundary (DragonFly's
    [sy_narg]).  Static per call, unlike {!argument_words} which counts
    PEEKed words and depends on path lengths. *)

val is_metadata : request -> bool
(** True for small metadata operations (stat, open, unlink, ...): the
    class whose per-call overhead dominates the [make] workload. *)

val payload_bytes : request -> result -> int
(** Bulk bytes moved by the call (read/write payload sizes); 0 for
    non-data calls.  Used by the cost model's copy terms. *)

val argument_words : request -> int
(** Machine words of small arguments a tracer must peek to decode the
    call (paths count by length / word size). *)

val result_words : result -> int
(** Machine words a tracer must poke to inject the result. *)

val read_to_end :
  (request -> result) -> fd:int -> chunk:int -> (string, Idbox_vfs.Errno.t) Stdlib.result
(** Read [fd] from its position to end-of-file through [submit], one
    [Read { fd; len = chunk }] at a time until one returns no bytes.  A
    file read in one chunk comes back as that chunk, uncopied; only a
    file spanning several chunks is joined.  The first error ends the
    read; a non-[Data] reply is [EINVAL]. *)

val pp_request : Format.formatter -> request -> unit
val pp_value : Format.formatter -> value -> unit
val pp_result : Format.formatter -> result -> unit
