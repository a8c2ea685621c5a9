(** The policy compiler: snapshot the reachable ACL universe into a
    verified {!Idbox_kernel.Policy} decision program.

    Compilation walks the filesystem host-side with the supervisor's
    [uid], mirroring the enforcement engine's resolution semantics
    (ancestor symlinks, the shared expansion budget, unparseable ACLs
    compiled as deny-all, unreadable ones as "no ACL"), builds the
    perfect-hash tables by seed trial, then runs the verifier: the
    structural check ({!Idbox_kernel.Policy.check_program}) plus a
    seeded semantic sample that re-derives verdicts from the live
    filesystem and rejects any disagreement.  A rejected or oversized
    program is an [Error] — the caller keeps the interpreter (fail
    closed, never open).

    Anything that is not a pure function of (governing ACL, principal,
    right) — nobody-fallback directories, unresolvable symlinks,
    unenumerable subtrees — is compiled as "not answerable", so the
    program returns [Unknown] there and the interpreter decides. *)

val right_bit : Idbox_acl.Right.t -> int
(** The bit position a right occupies in program masks: its index in
    {!Idbox_acl.Right.all}.  The VM itself is rights-agnostic. *)

val rights_mask : Idbox_acl.Rights.t -> int
(** A rights set as a program mask. *)

val resolve_final : Idbox_vfs.Fs.t -> uid:int -> string -> string
(** Host-side mirror of the engine's resolution of a path's final
    symlink chain (ancestors made canonical first), with [uid]'s
    permissions and the shared expansion budget.  Performs no simulated
    syscalls; the identity on a filesystem that has never held a
    symlink. *)

type cache
(** Work one build carries to the next.  Facts about keys and texts:
    per (table, length, seed) the two keys that collided in that seed
    trial, and each ACL file text with its parse.  And per uid a base:
    the last verified program with the per-directory shares it came
    from.  A build handed a cache produces exactly the program a cold
    build would.  Retained size is bounded by the trials tried (tables
    × lengths × 64 seeds, one key pair each), the ACL texts the latest
    build read (plus up to a fixed number the interpreter parsed since)
    and one base per uid. *)

val shared_cache : Idbox_vfs.Fs.t -> cache
(** The one cache attached to a filesystem, created on first use: every
    engine compiling that filesystem, whatever its uid, carries work
    through it, and it is freed with the filesystem. *)

val acl_of_text : cache -> string -> Idbox_acl.Acl.t
(** An ACL file's text parsed through the cache's text memo, so the
    interpreter and the compiler parse each live text once between
    them.  Unparseable text is the deny-all empty ACL, the compiler's
    and the interpreter's shared fail-closed rule. *)

type build =
  | Cold  (** walked and derived everything; sampled verifier *)
  | Patched
      (** re-derived only the directories whose stamp moved since this
          uid's last verified build; checked against it *)

val last_build : cache -> build option
(** Which path the latest build on this cache took.  Host-side
    introspection for tests; no counter moves. *)

val compile :
  ?tamper:(Idbox_kernel.Policy.t -> Idbox_kernel.Policy.t) ->
  ?verify_seed:int ->
  ?verify_samples:int ->
  ?cache:cache ->
  Idbox_vfs.Fs.t ->
  uid:int ->
  (Idbox_kernel.Policy.t, string) result
(** Compile the current filesystem state as seen by [uid] (the
    supervisor's uid — access the engine could not make must not leak
    into the program).  [tamper], applied between construction and
    verification, exists so tests can prove the verifier rejects
    corrupted programs.  [verify_seed] / [verify_samples] parameterize
    the semantic sample.  [cache] (default: a fresh one, a cold build)
    lets repeated builds of one engine skip seed trials already known
    to collide and ACL texts already parsed; the program is the same
    either way.  With a cache that holds a verified build for [uid],
    and while the filesystem has never held a symlink, the build is
    patched: it re-derives only the directories whose {!Idbox_vfs.Fs.stamp}
    moved, and instead of the sample it checks every changed entry
    against the live filesystem and every other entry against that
    verified build.  A rejected build leaves the verified one in
    place.  The returned program carries the VFS generation it
    snapshot; it is valid exactly while that generation holds. *)
