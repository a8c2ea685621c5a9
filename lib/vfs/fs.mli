(** The simulated filesystem: permission-checked operations over a tree
    of {!Inode.t}.

    All paths given to this module are absolute; the kernel joins
    process-relative paths against the current working directory first.
    Symbolic links are resolved with a loop limit; [".."] is resolved
    against the {e real} parent encountered during the walk, including
    through symlink targets that contain [".."].

    Every operation checks classic Unix permissions for the acting [uid]
    (search on traversed directories, read/write on the object as
    appropriate).  Identity-box ACL checks are layered {e above} this
    module by the interposition agent. *)

type t

type stat = {
  st_ino : int;
  st_kind : Inode.kind;
  st_mode : int;
  st_uid : int;
  st_nlink : int;
  st_size : int;
  st_mtime : int64;
  st_ctime : int64;
}

type open_flags = {
  rd : bool;  (** Open for reading. *)
  wr : bool;  (** Open for writing. *)
  creat : bool;  (** Create if absent (needs write on the parent). *)
  excl : bool;  (** With [creat]: fail [EEXIST] if present. *)
  trunc : bool;  (** Truncate to zero on open for write. *)
  append : bool;  (** Writes go to end-of-file. *)
}

val rdonly : open_flags
val wronly_create : open_flags
(** [creat + trunc] write flags, the common "put a file" shape. *)

val symlink_limit : int
(** The symlink-expansion budget shared by {e every} resolver — the
    kernel-side walk, the [O_CREAT] dangling-link expansion, and the
    supervisor-side canonicalisation in the enforcement engine.  One
    constant, so the box's verdict and the kernel's behaviour agree on
    when [ELOOP] fires. *)

val create : ?clock:(unit -> int64) -> unit -> t
(** A fresh filesystem containing only a root directory owned by uid 0
    with mode [0o755].  [clock] supplies mtime values (defaults to a
    constant 0 clock). *)

val root : t -> Inode.t

(** {1 Mutation generations}

    Monotonic counters that let caches revalidate without re-walking or
    re-reading anything.  Every namespace- or ACL-relevant mutation —
    create, unlink, rmdir, link, symlink, rename, chmod, chown, and a
    successful open-for-write of the {!watch_basename} name — bumps the
    global generation and the containing directory's generation.

    A successful open-for-write of any {e other} existing file bumps
    only the containing directory's generation: the directory's content
    is about to change (anti-entropy digests over file contents must
    revalidate) but its namespace is not, so whole-path name caches
    keyed on the global generation keep their hits. *)

val generation : t -> int
(** The global mutation generation (starts at 0). *)

val ever_symlinked : t -> bool
(** True once any {!symlink} has succeeded on this filesystem, and
    forever after (a monotone flag: unlinking the link does not clear
    it).  While it is false no path holds a symlink, so a resolver's
    result is the lexically normalized path and host-side mirrors may
    skip the chase. *)

type memo = ..
(** Host-side state derived from a filesystem — a compiler's work
    carried between builds, say — that lives exactly as long as the
    filesystem does.  Each owner extends the type with its own
    constructor; this module never looks inside. *)

val memos : t -> memo list
val add_memo : t -> memo -> unit

val dir_token : t -> string -> (int * int) option
(** [(ino, gen)] of the directory the path resolves to (as root,
    following symlinks), or [None] when it does not resolve to a
    directory.  Host-side: performs no simulated syscalls. *)

type stamp = private { sp_ino : int; sp_gen : int; sp_mode : int; sp_owner : int }
(** What a host-side consumer must remember about a directory to know
    whether its own share of the namespace moved. *)

val stamp : Inode.t -> stamp
(** A directory inode's [(ino, gen, mode, owner)].  While
    {!ever_symlinked} is false, and given every ancestor is searchable,
    what a [uid] learns about a directory through this module — its
    listing, which entries it can [lstat] and their kinds, the
    readability and content of its ACL file — is a function of the
    directory's path, its stamp and the [uid]: every create, unlink,
    link, rename, mkdir, rmdir, open-for-write, chmod and chown of an
    entry bumps the directory's generation, and a chmod or chown of the
    directory itself changes its mode or owner.  So a consumer that
    keeps per-directory results walks top-down and re-derives only the
    directories whose stamp (or path) changed.  An inode reached through
    an unchanged parent is the same object, so its stamp is read
    without resolving a path.  One limit: a file hard-linked into two
    directories and written (or chmod'ed) through one name bumps only
    that name's directory. *)

val watch_basename : t -> string -> unit
(** Register a basename (the ACL file name) whose open-for-write counts
    as a mutation of the containing directory.  File contents flow
    through descriptors, bypassing this module, so the bump happens at
    open time — sound here because opens and writes never interleave
    with checks in the single-threaded simulation. *)

val make_pipe : t -> Inode.t
(** A fresh pipe inode (allocated from this filesystem's inode space,
    never linked into the tree). *)

type 'a r := ('a, Errno.t) result

val resolve : t -> uid:int -> string -> Inode.t r
(** Full resolution, following every symlink. *)

val resolve_no_follow : t -> uid:int -> string -> Inode.t r
(** Resolution that does not follow a final symlink ([lstat] flavour). *)

val resolve_parent : t -> uid:int -> string -> (Inode.t * string) r
(** [(parent directory inode, final component)] for a path that need not
    exist yet.  Fails [EINVAL] on ["/"], ["."] or [".."] finals. *)

val open_file : t -> uid:int -> flags:open_flags -> mode:int -> string -> Inode.t r
(** Open (and possibly create) a regular file, enforcing permissions. *)

val mkdir : t -> uid:int -> mode:int -> string -> Inode.t r
val rmdir : t -> uid:int -> string -> unit r
val unlink : t -> uid:int -> string -> unit r
val link : t -> uid:int -> target:string -> string -> unit r
(** Hard link: [link ~target path] makes [path] name the same inode as
    [target].  Directories cannot be hard-linked ([EPERM]). *)

val symlink : t -> uid:int -> target:string -> string -> unit r
(** [symlink ~target path]: [target] is stored verbatim. *)

val readlink : t -> uid:int -> string -> string r
val rename : t -> uid:int -> src:string -> dst:string -> unit r
val readdir : t -> uid:int -> string -> string list r
val stat : t -> uid:int -> string -> stat r
val lstat : t -> uid:int -> string -> stat r
val fstat : Inode.t -> stat
val chmod : t -> uid:int -> mode:int -> string -> unit r
val chown : t -> uid:int -> owner:int -> string -> unit r
val exists : t -> uid:int -> string -> bool
(** True when {!resolve} succeeds (follows symlinks). *)

(** {1 Reading a directory already reached}

    For a directory inode reached at some path through ancestors [uid]
    may search, on a filesystem that has never held a symlink: each
    answers as the path-based call on that path would, without
    resolving it. *)

val readdir_at : uid:int -> Inode.t -> string list option
(** {!readdir}. *)

val lookup_at : uid:int -> Inode.t -> string -> Inode.t option
(** The entry {!lstat} of [dir/name] would describe. *)

val read_at : uid:int -> Inode.t -> string -> string option
(** {!read_file} of [dir/name]. *)

(** {1 Convenience for tests and fixtures} *)

val write_file : t -> uid:int -> ?mode:int -> string -> string -> unit r
(** Create-or-truncate a file with the given contents. *)

val read_file : t -> uid:int -> string -> string r
(** Whole-file read. *)

val mkdir_p : t -> uid:int -> ?mode:int -> string -> unit r
(** Create every missing directory along the path. *)
