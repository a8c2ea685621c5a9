(* The policy compiler: snapshot the box's reachable ACL universe into
   an {!Idbox_kernel.Policy} decision program.

   Compilation walks the filesystem host-side (no delegated syscalls),
   mirroring the enforcement engine's resolution semantics exactly: the
   supervisor's uid for every access, ancestor symlinks resolved with
   the same expansion budget, unparseable ACLs compiled as deny-all,
   unreadable ones as "no ACL".  The caller charges each compile
   attempt flat at {!Idbox_kernel.Cost.t.bytecode_compile_ns} when it
   makes it, and [Enforce] runs this build later, only once a check at
   that same generation needs the program — so most attempts under
   churn never reach here.  The builds that do are kept cheap without
   changing one byte of their output: seed trials track occupancy in
   one stamped array per table length, and the verifier parses each
   principal once and derives each directory's ACL once per call.  A
   caller that compiles the same filesystem repeatedly can also hand in
   a {!cache}, which carries exact facts from one build to the next
   (collision witnesses, parsed ACLs) and each uid's last verified
   build; and while the filesystem has never held a symlink the
   resolution mirrors are the identity, and a build with a verified
   predecessor is patched: only directories whose {!Fs.stamp} moved are
   re-derived, and the program is checked entry by entry against that
   predecessor and the live filesystem instead of sampled.

   Anything the snapshot cannot answer as a pure function of
   (governing ACL, principal, right) is recorded as NOT COMPILED
   (value -1) rather than omitted — existing objects must occupy the
   path table even when uncompilable, or the "absent means the object
   does not exist" reading of a path-table miss would break.  Subtrees
   the supervisor cannot enumerate are omitted entirely, which is
   safe: their directories never enter the dir table either, so every
   probe in them misses to [Unknown].

   The verifier runs before anything is installed: the structural
   check ({!Idbox_kernel.Policy.check_program}: size bounds, perfect
   placement, RET termination) plus, on a cold build, a seeded
   semantic sample that re-derives verdicts from the live filesystem
   and rejects any program that disagrees ([verify_patched] replaces
   the sample on a patched build).  Rejection falls closed to the
   interpreter, never to allow. *)

module Policy = Idbox_kernel.Policy
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Right = Idbox_acl.Right
module Rights = Idbox_acl.Rights
module Wildcard = Idbox_identity.Wildcard
module Principal = Idbox_identity.Principal
module Path = Idbox_vfs.Path
module Fs = Idbox_vfs.Fs
module Inode = Idbox_vfs.Inode

(* --- rights as mask bits ---------------------------------------------

   The VM is policy-agnostic: rights travel as bit positions defined
   here, by position in {!Right.all}, independent of the internal
   encoding of {!Rights.t}.  A direct match, not a list walk: every
   bytecode check converts its right. *)

let right_bit = function
  | Right.Read -> 0
  | Right.Write -> 1
  | Right.List -> 2
  | Right.Execute -> 3
  | Right.Admin -> 4
  | Right.Delete -> 5

let rights_mask rights =
  List.fold_left
    (fun m r -> if Rights.mem r rights then m lor (1 lsl right_bit r) else m)
    0 Right.all

(* --- host-side resolution mirrors ------------------------------------ *)

(* Mirror of [Enforce.canonical_parents]: resolve ancestor symlinks
   (as root, like the engine's in-memory name walk), collapse ".."
   against the canonical prefix, leave the final component alone.
   Every caller here passes a canonical path, which a filesystem that
   has never held a symlink maps to itself. *)
let canonical_parents fs path =
  let join_canonical resolved comp =
    if String.equal resolved "/" then "/" ^ comp else resolved ^ "/" ^ comp
  in
  let rec go resolved comps expansions =
    match comps with
    | [] -> resolved
    | [ final ] -> join_canonical resolved final
    | comp :: rest ->
      if String.equal comp ".." then go (Path.dirname resolved) rest expansions
      else
        let candidate = join_canonical resolved comp in
        (match Fs.lstat fs ~uid:0 candidate with
         | Ok st
           when st.Fs.st_kind = Inode.Symlink && expansions < Fs.symlink_limit
           ->
           (match Fs.readlink fs ~uid:0 candidate with
            | Ok target ->
              if Path.is_absolute target then
                go "/" (Path.components target @ rest) (expansions + 1)
              else go resolved (Path.components target @ rest) (expansions + 1)
            | Error _ -> go candidate rest expansions)
         | Ok _ | Error _ -> go candidate rest expansions)
  in
  if not (Fs.ever_symlinked fs) then path
  else
    let p = Path.normalize path in
    if String.equal p "/" then "/" else go "/" (Path.components p) 0

(* Mirror of [Enforce.resolve_final]: chase the final component's
   symlink chain with the supervisor's uid and the shared budget. *)
let resolve_final fs ~uid path =
  let rec go path depth =
    match Fs.lstat fs ~uid path with
    | Ok st when st.Fs.st_kind = Inode.Symlink && depth < Fs.symlink_limit ->
      (match Fs.readlink fs ~uid path with
       | Ok target ->
         go (canonical_parents fs (Path.join (Path.dirname path) target))
           (depth + 1)
       | Error _ -> path)
    | Ok _ | Error _ -> path
  in
  if not (Fs.ever_symlinked fs) then path
  else go (canonical_parents fs path) 0

(* --- work carried between builds --------------------------------------

   Two kinds of state outlive a build.  Facts about keys and texts,
   which no mutation can make wrong:

   - a collision witness: two keys that share a slot under one (table,
     length, seed).  Any later trial holding both must fail, so it is
     skipped without hashing; a trial without a live witness runs in
     full and leaves its own.  The first seed that fits is therefore
     the one a cold build finds.  One pair per (table, length, seed)
     tried, whatever the key count.
   - parsed ACLs, by file text, kept from one build to the next only:
     a text the latest build did not read is dropped, so the memo holds
     the live ACLs (plus what the interpreter parsed since, bounded by
     [max_texts]).

   And, per uid, a base: the last verified program with its ACL list,
   table sizes and the per-directory shares it was built from.  A base is a fact about
   the filesystem at one moment, so a build uses it only through the
   change-detection rule of {!Fs.stamp}, and verifies what it derives
   from it (see [verify_patched]). *)

type parsed_acl = {
  pa_acl : Acl.t;
  pa_key : string;  (* its rendering: the snapshot's interning key *)
  pa_wild : (string * int) list;  (* its WILD instructions, in entry order *)
  pa_rows : (string * int) list;  (* its exact rows, in emission order *)
}

type 'k witnesses = (int, ('k * 'k) option array) Hashtbl.t

(* One directory's share of the snapshot: its own ACL text, and what
   its listing contributes — a path entry per child, and for each
   subdirectory that subdirectory's share ([None]: the directory cannot
   be listed).  [s_epoch] is the build that derived the share from the
   filesystem; a build that reuses it keeps the epoch. *)
type entry =
  | Plain of string  (* statable, not a directory: governed by this ACL *)
  | Hidden of string  (* listed but not statable: NOT COMPILED *)
  | Sub of string * share
  | Link of string * string option * alias
      (* a symlink: the ACL text governing its final target, and the
         directory alias it may serve as *)

and alias = No_alias | Alias of string option

and share = {
  s_inode : Inode.t;
  s_stamp : Fs.stamp;
  s_epoch : int;
  s_acl : string option;  (* the ACL file's text; [None]: absent or unreadable *)
  s_entries : entry list option;
}

type snapshot = {
  (* ACL universe, deduplicated by rendered text. *)
  mutable acls : parsed_acl list;  (* reversed; index = id *)
  acl_ids : (string, int) Hashtbl.t;
  (* lexical dir path -> ACL id or -1 *)
  dirs : (string, int) Hashtbl.t;
  (* lexical object path -> governing ACL id or -1 *)
  paths : (string, int) Hashtbl.t;
}

type base = {
  b_root : share;
  b_acls : parsed_acl list;  (* its snapshot's, reversed; index = id *)
  b_acl_ids : (string, int) Hashtbl.t;
  b_dirs : int;  (* its table sizes *)
  b_paths : int;
  b_built : Policy.t;  (* as constructed: its (length, seed) restart seed searches *)
  b_prog : Policy.t;  (* as verified: the same program unless a test tampered *)
  b_rows : int array;  (* exact rows per ACL id in [b_prog] *)
}

type build = Cold | Patched

type cache = {
  dir_w : string witnesses;
  path_w : string witnesses;
  ex_w : (string * int) witnesses;
  mutable texts : (string, parsed_acl) Hashtbl.t;  (* read by this build *)
  mutable texts_prev : (string, parsed_acl) Hashtbl.t;
      (* read by the previous build; empty between builds *)
  bases : (int, base) Hashtbl.t;  (* by uid *)
  mutable epoch : int;  (* builds started *)
  mutable last : build option;
}

let create_cache () =
  {
    dir_w = Hashtbl.create 8;
    path_w = Hashtbl.create 8;
    ex_w = Hashtbl.create 8;
    texts = Hashtbl.create 16;
    texts_prev = Hashtbl.create 16;
    bases = Hashtbl.create 4;
    epoch = 0;
    last = None;
  }

type Fs.memo += Compile_cache of cache

let shared_cache fs =
  match List.find_map (function Compile_cache c -> Some c | _ -> None) (Fs.memos fs) with
  | Some c -> c
  | None ->
    let c = create_cache () in
    Fs.add_memo fs (Compile_cache c);
    c

let last_build c = c.last

(* A build may reuse what the previous one read; what it does not read
   is dropped when it ends.  What is kept is the parse, not the matcher
   the verifier built on it, whose per-principal memo would otherwise
   be held between builds for every ACL. *)
let begin_build c =
  let empty = c.texts_prev in
  c.texts_prev <- c.texts;
  c.texts <- empty

let end_build c =
  Hashtbl.reset c.texts_prev;
  Hashtbl.filter_map_inplace
    (fun _ pa -> Some { pa with pa_acl = Acl.of_entries (Acl.entries pa.pa_acl) })
    c.texts

(* An ACL's share of the program: one WILD instruction per wildcard
   entry, and for literal patterns one exact row per principal holding
   the union of its entries' rights (matching [Acl.rights_of]). *)
let compile_acl acl =
  let literal = Hashtbl.create 8 in
  let wild =
    List.filter_map
      (fun (e : Entry.t) ->
        let src = Wildcard.source e.Entry.pattern in
        let mask = rights_mask e.Entry.rights in
        if Wildcard.is_literal e.Entry.pattern then begin
          let prior = Option.value (Hashtbl.find_opt literal src) ~default:0 in
          Hashtbl.replace literal src (prior lor mask);
          None
        end
        else Some (src, mask))
      (Acl.entries acl)
  in
  (wild, List.rev (Hashtbl.fold (fun principal mask acc -> (principal, mask) :: acc) literal []))

let parse_acl c text =
  match Hashtbl.find_opt c.texts text with
  | Some pa -> pa
  | None ->
    let pa =
      match Hashtbl.find_opt c.texts_prev text with
      | Some pa -> pa
      | None ->
        (* Unparseable compiles as deny-all. *)
        let acl = match Acl.of_string text with Ok a -> a | Error _ -> Acl.empty in
        let wild, rows = compile_acl acl in
        { pa_acl = acl; pa_key = Acl.to_string acl; pa_wild = wild; pa_rows = rows }
    in
    Hashtbl.replace c.texts text pa;
    pa

(* Between builds the interpreter parses through the same memo.  What
   it adds is dropped by the next build unless that build reads it
   too; a memo that no build drains (an engine with bytecode off) is
   flushed at this size. *)
let max_texts = 1024

let acl_of_text c text =
  if Hashtbl.length c.texts >= max_texts && not (Hashtbl.mem c.texts text) then
    Hashtbl.reset c.texts;
  (parse_acl c text).pa_acl

let acl_text fs ~uid dir =
  match Fs.read_file fs ~uid (Path.join dir Acl.filename) with
  | Ok text -> Some text
  | Error _ -> None

(* Mirror of [Enforce.read_acl_file] + [dir_acl] fail-closed rules:
   unreadable (or absent) ACL file -> no ACL; unparseable -> deny-all. *)
let acl_of_dir c fs ~uid dir = Option.map (parse_acl c) (acl_text fs ~uid dir)

(* --- the snapshot walk ------------------------------------------------

   Two passes.  [share_of] derives each directory's share from the
   filesystem with the supervisor's uid, or reuses the previous build's
   when the directory's stamp still holds; [replay] then lays the
   shares out in walk order, which fixes the ACL ids and the tables'
   insertion order.  A cold build has nothing to reuse, so it derives
   every directory. *)

let max_universe = Policy.max_table / 4

(* One build's walk, with the would-be table sizes so it stops where
   the tables would overflow.  "/" is counted as a path up front: it is
   added last. *)
type walk = {
  w_fs : Fs.t;
  w_uid : int;
  w_epoch : int;
  mutable w_dirs : int;
  mutable w_paths : int;
}

let over w = w.w_dirs > max_universe || w.w_paths > max_universe

let child_path dir name = if String.equal dir "/" then "/" ^ name else dir ^ "/" ^ name

(* [dir]'s share: [prev] itself while its stamp holds (its
   subdirectories refreshed in turn), else derived afresh.  An unchanged
   directory still holds the same child inodes under the same names, so
   a reused share's subdirectories are reached without a lookup; a
   derived share's subdirectories find their previous share by path,
   which a rename changes. *)
let rec share_of w ~prev dir inode =
  let stamp = Fs.stamp inode in
  match prev with
  | Some s when s.s_stamp = stamp -> reuse w s
  | Some _ | None -> derive w ~prev dir inode stamp

and reuse w s =
  w.w_dirs <- w.w_dirs + 1;
  match s.s_entries with
  | None -> s
  | Some entries ->
    (* The same list, physically, unless a subdirectory's share moved. *)
    let rec refresh = function
      | [] -> []
      | e :: rest as l ->
        w.w_paths <- w.w_paths + 1;
        let e' =
          match e with
          | Sub (p, sub) ->
            let sub' = share_of w ~prev:(Some sub) p sub.s_inode in
            if sub' == sub then e else Sub (p, sub')
          | Plain _ | Hidden _ | Link _ -> e
        in
        let rest' = refresh rest in
        if e' == e && rest' == rest then l else e' :: rest'
    in
    let entries' = refresh entries in
    if entries' == entries then s else { s with s_entries = Some entries' }

and derive w ~prev dir inode stamp =
  let fs = w.w_fs and uid = w.w_uid in
  (* While no symlink has existed, the reached inode is read directly,
     under the path-based calls' permission rules; after, through the
     path-based calls, whose resolution a symlink can change. *)
  let direct = not (Fs.ever_symlinked fs) in
  let acl =
    if direct then Fs.read_at ~uid inode Acl.filename else acl_text fs ~uid dir
  in
  let listing =
    if direct then Fs.readdir_at ~uid inode
    else Result.to_option (Fs.readdir fs ~uid dir)
  in
  w.w_dirs <- w.w_dirs + 1;
  let entries =
    match listing with
    | None ->
      (* Cannot enumerate: children stay unknown, so neither
         nonexistence claims nor in-dir verdicts may come from here. *)
      None
    | Some names ->
      let before =
        match prev with Some { s_entries = Some es; _ } -> es | Some _ | None -> []
      in
      let prev_sub path =
        List.find_map
          (function Sub (p, s) when String.equal p path -> Some s | _ -> None)
          before
      in
      Some
        (List.filter_map
           (fun name ->
             if over w then None
             else begin
               w.w_paths <- w.w_paths + 1;
               let child = child_path dir name in
               let statable =
                 if direct then Fs.lookup_at ~uid inode name
                 else
                   match Fs.lstat fs ~uid child with
                   | Ok _ -> Inode.dir_find inode name
                   | Error _ -> None
               in
               match statable with
               | None ->
                 (* Present in the listing but not statable: occupy the
                    slot, answer nothing. *)
                 Some (Hidden child)
               | Some sub ->
                 (match Inode.kind sub with
                  | Inode.Directory ->
                    Some (Sub (child, share_of w ~prev:(prev_sub child) child sub))
                  | Inode.Symlink -> Some (link w child)
                  | Inode.Regular | Inode.Fifo -> Some (Plain child))
             end)
           names)
  in
  { s_inode = inode; s_stamp = stamp; s_epoch = w.w_epoch; s_acl = acl; s_entries = entries }

and link w child =
  let fs = w.w_fs and uid = w.w_uid in
  let final = resolve_final fs ~uid child in
  (* A symlink that lands on a directory also serves as a directory
     alias for parent-fallback probes — but only when the target's
     children are all plain (a symlink child would be chased by the
     engine, diverging from the alias's own ACL answer). *)
  let alias =
    match Fs.lstat fs ~uid final with
    | Ok fst when fst.Fs.st_kind = Inode.Directory ->
      w.w_dirs <- w.w_dirs + 1;
      Alias
        (match (acl_text fs ~uid final, Fs.readdir fs ~uid final) with
         | Some a, Ok children
           when List.for_all
                  (fun n ->
                    match Fs.lstat fs ~uid (child_path final n) with
                    | Ok s -> s.Fs.st_kind <> Inode.Symlink
                    | Error _ -> false)
                  children -> Some a
         | _ -> None)
    | Ok _ | Error _ -> No_alias
  in
  Link (child, acl_text fs ~uid (Path.dirname final), alias)

let intern_acl snap ({ pa_key; _ } as pa) =
  match Hashtbl.find_opt snap.acl_ids pa_key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length snap.acl_ids in
    Hashtbl.replace snap.acl_ids pa_key id;
    snap.acls <- pa :: snap.acls;
    id

(* Lays the shares out in walk order.  With [against] (a patched
   build's base program), also counts the keys that shares derived in
   this build add to each table: a table whose size less those equals
   the base's lost no key. *)
let replay c ~epoch ?against root =
  let snap =
    {
      acls = [];
      acl_ids = Hashtbl.create 16;
      dirs = Hashtbl.create 64;
      paths = Hashtbl.create 256;
    }
  in
  let added_dirs = ref 0 and added_paths = ref 0 in
  let value = function Some text -> intern_acl snap (parse_acl c text) | None -> -1 in
  let count s find added key =
    match against with
    | Some base when s.s_epoch = epoch && Option.is_none (find base key) -> incr added
    | Some _ | None -> ()
  in
  let add_dir s key v =
    Hashtbl.replace snap.dirs key v;
    count s Policy.find_dir added_dirs key
  and add_path s key v =
    Hashtbl.replace snap.paths key v;
    count s Policy.find_path added_paths key
  in
  let rec lay dir s =
    match s.s_entries with
    | None -> add_dir s dir (-1)
    | Some entries ->
      (* Interned once per directory, not re-rendered per child. *)
      let own = value s.s_acl in
      add_dir s dir own;
      List.iter
        (function
          | Plain p -> add_path s p own
          | Hidden p -> add_path s p (-1)
          | Sub (p, sub) ->
            add_path s p own;
            lay p sub
          | Link (p, target, alias) ->
            add_path s p (value target);
            (match alias with Alias a -> add_dir s p (value a) | No_alias -> ()))
        entries
  in
  lay "/" root;
  (* Root is both a directory and an object governed by itself. *)
  add_path root "/" (value root.s_acl);
  (snap, !added_dirs, !added_paths)

(* --- program construction --------------------------------------------- *)

(* Try seeds until every key lands in a distinct slot: the perfect-hash
   construction.  Grows the table (up to the budget) when no seed in
   the trial window works.  A trial only needs occupancy, so each
   length gets one mark array; a slot's mark packs the trial's seed
   (seeds start at 1: the initial 0 never reads as taken) with the
   index of the key that took it, which names the collision witness of
   a failed trial.  A trial whose witness keys are both [present] is
   skipped: it would fail.  [from] is a (length, seed) every earlier
   trial is known to fail at, so the search starts there.  The
   key/value arrays are built once, for the winning seed. *)
let key_bits = 24
let key_mask = (1 lsl key_bits) - 1

let build_table ~slot ~(witness : _ witnesses) ~present ~from:(from_len, from_seed) items =
  let items = Array.of_list items in
  let n = Array.length items in
  let rec pow2 x = if x >= n * 2 && x >= 4 then x else pow2 (x * 2) in
  let place ~seed len =
    let key = Array.make len (-1) in
    let value = Array.make len (-1) in
    Array.iter
      (fun (k, pool_idx, v) ->
        let i = slot ~seed ~len k in
        key.(i) <- pool_idx;
        value.(i) <- v)
      items;
    Some (seed, key, value)
  in
  let rec try_len len =
    if len > Policy.max_table then None
    else
      let seen =
        match Hashtbl.find_opt witness len with
        | Some w -> w
        | None ->
          let w = Array.make 65 None in
          Hashtbl.replace witness len w;
          w
      in
      let mark = Array.make len 0 in
      let rec fits seed j =
        j = n
        ||
        let k, _, _ = items.(j) in
        let i = slot ~seed ~len k in
        if mark.(i) lsr key_bits = seed then begin
          let first, _, _ = items.(mark.(i) land key_mask) in
          seen.(seed) <- Some (first, k);
          false
        end
        else begin
          mark.(i) <- (seed lsl key_bits) lor j;
          fits seed (j + 1)
        end
      in
      let doomed seed =
        match seen.(seed) with
        | Some (a, b) -> present a && present b
        | None -> false
      in
      let rec try_seed seed =
        if seed > 64 then try_len (len * 2)
        else if (not (doomed seed)) && fits seed 0 then place ~seed len
        else try_seed (seed + 1)
      in
      try_seed (if len = from_len then from_seed else 1)
  in
  try_len (max (pow2 4) from_len)

(* [from] gives each table's (dir, path, exact) search start. *)
let build_program snap ~gen ~from:(dirs_from, paths_from, ex_from) c =
  let pool = ref [] and pool_n = ref 0 in
  let interned = Hashtbl.create 256 in
  let intern s =
    match Hashtbl.find_opt interned s with
    | Some i -> i
    | None ->
      let i = !pool_n in
      Hashtbl.replace interned s i;
      pool := s :: !pool;
      incr pool_n;
      i
  in
  let acls = Array.of_list (List.rev snap.acls) in
  (* One RET-terminated block per ACL in one flat stream. *)
  let code = ref [] and code_n = ref 0 in
  let emit i =
    code := i :: !code;
    incr code_n
  in
  let exact_rows = ref [] in
  let acl_off = Array.make (Array.length acls) 0 in
  let pattern_too_long = ref false in
  Array.iteri
    (fun id pa ->
      acl_off.(id) <- !code_n;
      List.iter
        (fun (src, mask) ->
          if String.length src > Policy.max_pattern then pattern_too_long := true;
          emit Policy.op_wild;
          emit (intern src);
          emit mask)
        pa.pa_wild;
      emit Policy.op_ret;
      List.iter (fun (principal, mask) -> exact_rows := (principal, id, mask) :: !exact_rows) pa.pa_rows)
    acls;
  if !pattern_too_long then Error "wildcard pattern exceeds budget"
  else begin
    (* Pool indices follow the tables' iteration order; the order of
       the items themselves only picks which collision a failed trial
       records. *)
    let dir_items = Hashtbl.fold (fun k v acc -> (k, intern k, v) :: acc) snap.dirs [] in
    let path_items = Hashtbl.fold (fun k v acc -> (k, intern k, v) :: acc) snap.paths [] in
    let ex_items = List.map (fun (p, id, mask) -> (p, intern p, id, mask)) !exact_rows in
    let ex_keys = Hashtbl.create (List.length ex_items) in
    List.iter (fun (p, _, id, _) -> Hashtbl.replace ex_keys (p, id) ()) ex_items;
    match
      ( build_table ~slot:Policy.dir_slot ~witness:c.dir_w
          ~present:(Hashtbl.mem snap.dirs)
          ~from:dirs_from
          dir_items,
        build_table ~slot:Policy.path_slot ~witness:c.path_w
          ~present:(Hashtbl.mem snap.paths)
          ~from:paths_from
          path_items,
        build_table
          ~slot:(fun ~seed ~len (k, acl) -> Policy.ex_slot ~seed ~len ~acl k)
          ~witness:c.ex_w ~present:(Hashtbl.mem ex_keys)
          ~from:ex_from
          (List.map (fun (p, pi, id, mask) -> ((p, id), pi, mask)) ex_items)
      )
    with
    | Some (ds, dk, dv), Some (ps, pk, pv), Some (es, ek, em) ->
      (* The exact table needs the ACL id alongside the mask: rebuild
         the parallel acl array from the placed keys. *)
      let ea = Array.make (Array.length ek) (-1) in
      List.iter
        (fun (p, _, id, _) ->
          let i = Policy.ex_slot ~seed:es ~len:(Array.length ek) ~acl:id p in
          if ek.(i) >= 0 then ea.(i) <- id)
        ex_items;
      let p =
        {
          Policy.p_gen = gen;
          p_pool = Array.of_list (List.rev !pool);
          p_code = Array.of_list (List.rev !code);
          p_acl_off = acl_off;
          p_dir_seed = ds;
          p_dir_key = dk;
          p_dir_val = dv;
          p_path_seed = ps;
          p_path_key = pk;
          p_path_val = pv;
          p_ex_seed = es;
          p_ex_key = ek;
          p_ex_acl = ea;
          p_ex_mask = em;
        }
      in
      Ok p
    | _ -> Error "no perfect hash within table budget"
  end

(* --- the verifiers ------------------------------------------------------ *)

(* Deterministic splitmix-style PRNG: no wall-clock, no global state. *)
let prng seed =
  let state = ref (seed land 0x3FFFFFFFFFFFFFF) in
  fun bound ->
    state := ((!state * 0x2545F4914F6CDD1D) + 0x9E3779B97F4A7C1) land max_int;
    (!state lsr 17) mod bound

let memo f =
  let tbl = Hashtbl.create 64 in
  fun key ->
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = f key in
      Hashtbl.replace tbl key v;
      v

(* The principals a verifier asks about, each with its canonical
   rendering — exactly the string the engine presents at check time:
   every literal entry of the universe, a stranger, nobody, and
   [extra]. *)
let universe snap extra =
  let literals =
    List.concat_map
      (fun pa ->
        List.filter_map
          (fun (e : Entry.t) ->
            if Wildcard.is_literal e.Entry.pattern then
              Some (Wildcard.source e.Entry.pattern)
            else None)
          (Acl.entries pa.pa_acl))
      snap.acls
  in
  List.sort_uniq String.compare
    (("unix:nobody" :: "globus:/O=Elsewhere/CN=stranger" :: literals) @ extra)
  |> List.map (fun s ->
         let p = Principal.of_string s in
         (p, Principal.to_string p))
  |> Array.of_list

(* The cold verifier: re-derive the expected verdict for each sampled
   check from the live filesystem — independent of the snapshot the
   program was built from.  An expectation of [None] means the engine
   would use the nobody fallback (not a pure ACL function), where the
   program must answer [Unknown].  The filesystem cannot change during
   one call, so each principal is parsed once, and each directory's ACL
   and each path's governing directory are derived at most once; the
   sample itself (seed, count, probe shapes, draw order) is unchanged
   by that memo. *)
let verify c fs ~uid ~seed ~samples prog snap =
  let paths =
    Hashtbl.fold (fun k _ acc -> k :: acc) snap.paths []
    |> List.sort String.compare
    |> Array.of_list
  in
  let dirs =
    Hashtbl.fold (fun k _ acc -> k :: acc) snap.dirs []
    |> List.sort String.compare
    |> Array.of_list
  in
  let principals = universe snap [] in
  let acl_of =
    memo (fun dir -> Option.map (fun pa -> pa.pa_acl) (acl_of_dir c fs ~uid dir))
  in
  let governing = memo (fun path -> Path.dirname (resolve_final fs ~uid path)) in
  let want_in dir principal right =
    Option.map (fun acl -> Acl.check acl principal right) (acl_of dir)
  in
  let want_object path principal right =
    want_in (governing path) principal right
  in
  let rights = Array.of_list Right.all in
  let rand = prng seed in
  let disagreement = ref None in
  let n_paths = Array.length paths and n_dirs = Array.length dirs in
  if n_paths = 0 && n_dirs = 0 then Ok ()
  else begin
    for _ = 1 to samples do
      if !disagreement = None then begin
        let principal, who = principals.(rand (Array.length principals)) in
        let right = rights.(rand (Array.length rights)) in
        let bit = right_bit right in
        (* [fallback] names the probe when the program answered where
           the engine would fall back to the nobody rule. *)
        let judge want got ~kind ~fallback subject =
          match (want, got) with
          | Some true, Policy.Deny | Some false, Policy.Allow ->
            disagreement :=
              Some
                (Printf.sprintf "%s %s %s %c" kind subject who
                   (Right.to_char right))
          | None, (Policy.Allow | Policy.Deny) ->
            disagreement :=
              Some (Printf.sprintf "%s %s answered by program" fallback subject)
          | _ -> ()
        in
        (* Three probe shapes: an existing object, a nonexistent child
           of an existing directory, and an in-dir check. *)
        let shape = rand 3 in
        if shape = 0 && n_paths > 0 then begin
          let path = paths.(rand n_paths) in
          judge
            (want_object path principal right)
            (Policy.eval_object prog ~principal:who ~path ~right_bit:bit)
            ~kind:"object" ~fallback:"fallback" path
        end
        else if shape = 1 && n_dirs > 0 then begin
          let dir = dirs.(rand n_dirs) in
          let path =
            if String.equal dir "/" then "/__pc_probe" else dir ^ "/__pc_probe"
          in
          judge
            (want_object path principal right)
            (Policy.eval_object prog ~principal:who ~path ~right_bit:bit)
            ~kind:"absent" ~fallback:"fallback" path
        end
        else if n_dirs > 0 then begin
          let dir = dirs.(rand n_dirs) in
          judge (want_in dir principal right)
            (Policy.eval_in_dir prog ~principal:who ~dir ~right_bit:bit)
            ~kind:"in-dir" ~fallback:"fallback dir" dir
        end
      end
    done;
    match !disagreement with
    | Some what -> Error ("verifier: program disagrees with interpreter: " ^ what)
    | None -> Ok ()
  end

exception Reject of string

let all_rights = (1 lsl List.length Right.all) - 1

(* The patched verifier, for a program built on base [b] (DESIGN §13).
   The program answers every check by looking a key up in its dir or
   path table, then evaluating the ACL block the value names.  So:
   (a) every changed key — one laid out by a share derived in this
       build — names the ACL its share read, and that ACL is the one
       the live filesystem puts over the key now;
   (b) the block of every ACL the base did not hold is evaluated
       against the ACL for every principal of the universe (with every
       principal the exact table names) and every right;
   (c) everything else equals the verified base: key presence, the ACL
       behind each key, blocks instruction for instruction, exact rows
       mask for mask;
   (d) a seeded sample of untouched directories is held against the
       live filesystem, a guard on the change-detection rule itself.
   The keys are walked as [replay] laid them out, from the shares, so
   each is hashed once per program it is looked up in. *)
let verify_patched c fs ~uid ~seed ~epoch (p : Policy.t) snap b root =
  let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt in
  let q = b.b_prog in
  let acls = Array.of_list (List.rev snap.acls) in
  let n = Array.length acls in
  try
    if Array.length p.p_acl_off <> n then
      reject "%d ACL blocks for %d ACLs" (Array.length p.p_acl_off) n;
    (* Each ACL's id in the base, or -1 for an ACL the base lacked. *)
    let to_base =
      Array.map
        (fun pa -> Option.value (Hashtbl.find_opt b.b_acl_ids pa.pa_key) ~default:(-1))
        acls
    in
    (* (c) blocks.  Both programs passed [check_program], so each walk
       stays in range and meets RET. *)
    let rec same_block pc qc =
      let op = p.p_code.(pc) in
      op = q.p_code.(qc)
      && (op = Policy.op_ret
         || String.equal p.p_pool.(p.p_code.(pc + 1)) q.p_pool.(q.p_code.(qc + 1))
            && p.p_code.(pc + 2) = q.p_code.(qc + 2)
            && same_block (pc + Policy.instr_width) (qc + Policy.instr_width))
    in
    Array.iteri
      (fun i j ->
        if j >= 0 && not (same_block p.p_acl_off.(i) q.p_acl_off.(j)) then
          reject "acl %d: block differs from the verified one" i)
      to_base;
    (* (c) exact rows of carried ACLs; rows of new ones name principals
       for (b). *)
    let rows = Array.make n 0 and named = ref [] in
    Array.iteri
      (fun slot k ->
        if k >= 0 then begin
          let i = p.p_ex_acl.(slot) and who = p.p_pool.(k) in
          rows.(i) <- rows.(i) + 1;
          let j = to_base.(i) in
          if j < 0 then named := who :: !named
          else
            match Policy.find_exact q ~acl:j who with
            | Some m when m = p.p_ex_mask.(slot) -> ()
            | Some _ | None -> reject "exact %s/%d differs from the verified row" who i
        end)
      p.p_ex_key;
    Array.iteri
      (fun i j ->
        if j >= 0 && rows.(i) <> b.b_rows.(j) then
          reject "acl %d: %d exact rows, verified %d" i rows.(i) b.b_rows.(j))
      to_base;
    (* (b) *)
    if Array.exists (fun j -> j < 0) to_base then begin
      let principals = universe snap !named in
      Array.iteri
        (fun i j ->
          if j < 0 then
            Array.iter
              (fun (principal, who) ->
                match Policy.acl_mask p ~acl:i who with
                | None -> () (* out of fuel: the program answers Unknown *)
                | Some m ->
                  let want = rights_mask (Acl.rights_of acls.(i).pa_acl principal) in
                  if m land all_rights <> want then
                    reject "acl %d grants %s mask %d, the ACL %d" i who m want)
              principals)
        to_base
    end;
    (* (a), (c), (d) over the keys. *)
    let live dir = Option.map (fun pa -> pa.pa_key) (acl_of_dir c fs ~uid dir) in
    (* Whether value [v] names the ACL rendered as [want] ([None]: no
       ACL, the value must be NOT COMPILED). *)
    let names v want =
      match want with
      | None -> v < 0
      | Some key -> v >= 0 && String.equal acls.(v).pa_key key
    in
    let rand = prng seed in
    let dirs = ref 0 and paths = ref 0 in
    let check table find count ~fresh key want =
      incr count;
      match find p key with
      | None -> reject "%s %s: missing" table key
      | Some v when fresh ->
        if not (names v want) then reject "%s %s: not the ACL its directory holds" table key
      | Some v ->
        (match find q key with
         | Some u when if v < 0 then u < 0 else to_base.(v) >= 0 && to_base.(v) = u -> ()
         | Some _ | None -> reject "%s %s: differs from the verified program" table key)
    in
    let dir = check "dir" Policy.find_dir dirs
    and path = check "path" Policy.find_path paths in
    (* Returns the share's own ACL rendering, which also governs the
       root object. *)
    let rec walk name s =
      let fresh = s.s_epoch = epoch in
      let own = Option.map (fun text -> (parse_acl c text).pa_key) s.s_acl in
      (match s.s_entries with
       | None -> dir ~fresh name None
       | Some entries ->
         dir ~fresh name own;
         List.iter
           (function
             | Plain k -> path ~fresh k own
             | Hidden k -> path ~fresh k None
             | Sub (k, sub) ->
               path ~fresh k own;
               ignore (walk k sub)
             | Link (k, _, _) -> reject "path %s: a symlink in a patched build" k)
           entries);
      (* (a) for a derived share, (d) for a sampled untouched one. *)
      (match own with
       | Some _ when (fresh || rand 8 = 0) && not (Option.equal String.equal (live name) own) ->
         reject "dir %s: not the live ACL" name
       | Some _ | None -> ());
      own
    in
    path ~fresh:(root.s_epoch = epoch) "/" (walk "/" root);
    let occupied keys = Array.fold_left (fun k slot -> if slot >= 0 then k + 1 else k) 0 keys in
    if occupied p.p_dir_key <> !dirs || occupied p.p_path_key <> !paths then
      reject "tables hold %d dirs and %d paths, the snapshot %d and %d"
        (occupied p.p_dir_key) (occupied p.p_path_key) !dirs !paths;
    Ok ()
  with Reject what -> Error ("verifier: " ^ what)

(* --- entry point ------------------------------------------------------ *)

let rows_per_acl (p : Policy.t) =
  let rows = Array.make (Array.length p.p_acl_off) 0 in
  Array.iteri
    (fun slot k -> if k >= 0 then rows.(p.p_ex_acl.(slot)) <- rows.(p.p_ex_acl.(slot)) + 1)
    p.p_ex_key;
  rows

(* Where each table's seed search starts.  A table that lost no key
   starts at the base's winner: every trial before it held a collision
   between base keys, which are all still present.  The exact table
   keys rows by ACL id, so it lost none when the base's ACLs are a
   prefix of this build's.  Otherwise the search runs from the start,
   with the carried witnesses. *)
let restart b snap ~added_dirs ~added_paths =
  let winner key seed = (Array.length key, seed) in
  let p = b.b_built in
  let rec prefix = function
    | [], _ -> true
    | x :: xs, y :: ys -> String.equal x.pa_key y.pa_key && prefix (xs, ys)
    | _ :: _, [] -> false
  in
  ( (if Hashtbl.length snap.dirs - added_dirs = b.b_dirs then
       winner p.p_dir_key p.p_dir_seed
     else (0, 1)),
    (if Hashtbl.length snap.paths - added_paths = b.b_paths then
       winner p.p_path_key p.p_path_seed
     else (0, 1)),
    if prefix (List.rev b.b_acls, List.rev snap.acls) then winner p.p_ex_key p.p_ex_seed
    else (0, 1) )

let compile ?tamper ?(verify_seed = 0x1db0) ?(verify_samples = 256) ?cache fs
    ~uid =
  let c = match cache with Some c -> c | None -> create_cache () in
  (* With a symlink anywhere a share is no longer a function of its
     stamp: every build from here on is cold. *)
  if Fs.ever_symlinked fs then Hashtbl.reset c.bases;
  let base =
    match Hashtbl.find_opt c.bases uid with
    | Some b when b.b_root.s_inode == Fs.root fs -> Some b
    | Some _ | None -> None
  in
  begin_build c;
  c.epoch <- c.epoch + 1;
  c.last <- Some (if Option.is_some base then Patched else Cold);
  let epoch = c.epoch in
  let w =
    { w_fs = fs; w_uid = uid; w_epoch = epoch; w_dirs = 0; w_paths = 1 }
  in
  let root = share_of w ~prev:(Option.map (fun b -> b.b_root) base) "/" (Fs.root fs) in
  let built =
    if over w then Error "universe exceeds compile budget"
    else
      let snap, added_dirs, added_paths =
        replay c ~epoch ?against:(Option.map (fun b -> b.b_built) base) root
      in
      let from =
        match base with
        | Some b -> restart b snap ~added_dirs ~added_paths
        | None -> ((0, 1), (0, 1), (0, 1))
      in
      Result.map (fun p -> (p, snap)) (build_program snap ~gen:(Fs.generation fs) ~from c)
  in
  let result =
    match built with
    | Error _ as e -> e
    | Ok (built, snap) ->
      let prog = match tamper with Some f -> f built | None -> built in
      let verdict =
        match Policy.check_program prog with
        | Error msg -> Error ("verifier: " ^ msg)
        | Ok () ->
          (match base with
           | Some b -> verify_patched c fs ~uid ~seed:verify_seed ~epoch prog snap b root
           | None -> verify c fs ~uid ~seed:verify_seed ~samples:verify_samples prog snap)
      in
      Result.map
        (fun () ->
          if not (Fs.ever_symlinked fs) then
            Hashtbl.replace c.bases uid
              { b_root = root; b_acls = snap.acls; b_acl_ids = snap.acl_ids;
                b_dirs = Hashtbl.length snap.dirs; b_paths = Hashtbl.length snap.paths;
                b_built = built; b_prog = prog; b_rows = rows_per_acl prog };
          prog)
        verdict
  in
  end_build c;
  result
