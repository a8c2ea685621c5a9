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

type cache
(** Work one build carries to the next: per (table, length, seed) the
    two keys that collided in that seed trial, and each ACL file text
    with its parse.  Both are facts about keys and texts, not about the
    filesystem, so a build handed a cache produces exactly the program
    a cold build would.  Retained size is bounded by the trials tried
    (tables × lengths × 64 seeds, one key pair each) plus the ACL texts
    the latest build read. *)

val shared_cache : Idbox_vfs.Fs.t -> cache
(** The one cache attached to a filesystem, created on first use: every
    engine compiling that filesystem, whatever its uid, carries work
    through it, and it is freed with the filesystem. *)

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
    either way.  The returned program carries the VFS
    generation it snapshot; it is valid exactly while that generation
    holds. *)
