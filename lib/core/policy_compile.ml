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
   (collision witnesses, parsed ACLs); and while the filesystem has
   never held a symlink the resolution mirrors are the identity.

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
   placement, RET termination) plus a seeded semantic sample that
   re-derives verdicts from the live filesystem and rejects any
   program that disagrees.  Rejection falls closed to the interpreter,
   never to allow. *)

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

   Everything kept here is a fact about keys or texts, never about the
   filesystem, so no mutation can make it wrong:

   - a collision witness: two keys that share a slot under one (table,
     length, seed).  Any later trial holding both must fail, so it is
     skipped without hashing; a trial without a live witness runs in
     full and leaves its own.  The first seed that fits is therefore
     the one a cold build finds.  One pair per (table, length, seed)
     tried, whatever the key count.
   - parsed ACLs, by file text, kept from one build to the next only:
     a text the latest build did not read is dropped, so the memo holds
     the live ACLs. *)

type parsed_acl = {
  pa_acl : Acl.t;
  pa_key : string;  (* its rendering: the snapshot's interning key *)
}

type 'k witnesses = (int, ('k * 'k) option array) Hashtbl.t

type cache = {
  dir_w : string witnesses;
  path_w : string witnesses;
  ex_w : (string * int) witnesses;
  mutable texts : (string, parsed_acl) Hashtbl.t;  (* read by this build *)
  mutable texts_prev : (string, parsed_acl) Hashtbl.t;
      (* read by the previous build; empty between builds *)
}

let create_cache () =
  {
    dir_w = Hashtbl.create 8;
    path_w = Hashtbl.create 8;
    ex_w = Hashtbl.create 8;
    texts = Hashtbl.create 16;
    texts_prev = Hashtbl.create 16;
  }

type Fs.memo += Compile_cache of cache

let shared_cache fs =
  match List.find_map (function Compile_cache c -> Some c | _ -> None) (Fs.memos fs) with
  | Some c -> c
  | None ->
    let c = create_cache () in
    Fs.add_memo fs (Compile_cache c);
    c

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
        { pa_acl = acl; pa_key = Acl.to_string acl }
    in
    Hashtbl.replace c.texts text pa;
    pa

(* Mirror of [Enforce.read_acl_file] + [dir_acl] fail-closed rules:
   unreadable (or absent) ACL file -> no ACL; unparseable -> deny-all. *)
let acl_of_dir c fs ~uid dir =
  match Fs.read_file fs ~uid (Path.join dir Acl.filename) with
  | Error _ -> None
  | Ok text -> Some (parse_acl c text)

(* --- the snapshot walk ------------------------------------------------ *)

type snapshot = {
  (* ACL universe, deduplicated by rendered text. *)
  mutable acls : Acl.t list;  (* reversed; index = id *)
  acl_ids : (string, int) Hashtbl.t;
  (* lexical dir path -> ACL id or -1 *)
  dirs : (string, int) Hashtbl.t;
  (* lexical object path -> governing ACL id or -1 *)
  paths : (string, int) Hashtbl.t;
  mutable overflow : bool;
}

let max_universe = Policy.max_table / 4

let intern_acl snap { pa_acl; pa_key } =
  match Hashtbl.find_opt snap.acl_ids pa_key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length snap.acl_ids in
    Hashtbl.replace snap.acl_ids pa_key id;
    snap.acls <- pa_acl :: snap.acls;
    id

let add_dir snap path v =
  if Hashtbl.length snap.dirs >= max_universe then snap.overflow <- true
  else Hashtbl.replace snap.dirs path v

let add_path snap path v =
  if Hashtbl.length snap.paths >= max_universe then snap.overflow <- true
  else Hashtbl.replace snap.paths path v

(* The governing-ACL id for an object's final resolved path, or -1. *)
let object_value c fs ~uid snap final =
  match acl_of_dir c fs ~uid (Path.dirname final) with
  | Some acl -> intern_acl snap acl
  | None -> -1

let snapshot c fs ~uid =
  let snap =
    {
      acls = [];
      acl_ids = Hashtbl.create 16;
      dirs = Hashtbl.create 64;
      paths = Hashtbl.create 256;
      overflow = false;
    }
  in
  let rec walk_dir dir =
    if snap.overflow then ()
    else
      let own_acl = acl_of_dir c fs ~uid dir in
      match Fs.readdir fs ~uid dir with
      | Error _ ->
        (* Cannot enumerate: children stay unknown, so neither
           nonexistence claims nor in-dir verdicts may come from here. *)
        add_dir snap dir (-1)
      | Ok names ->
        (* Interned once per directory, not re-rendered per child. *)
        let own_id =
          match own_acl with Some a -> intern_acl snap a | None -> -1
        in
        add_dir snap dir own_id;
        List.iter
          (fun name ->
            if not snap.overflow then begin
              let child =
                if String.equal dir "/" then "/" ^ name else dir ^ "/" ^ name
              in
              match Fs.lstat fs ~uid child with
              | Error _ ->
                (* Present in the listing but not statable: occupy the
                   slot, answer nothing. *)
                add_path snap child (-1)
              | Ok st ->
                (match st.Fs.st_kind with
                 | Inode.Directory ->
                   add_path snap child own_id;
                   walk_dir child
                 | Inode.Symlink ->
                   let final = resolve_final fs ~uid child in
                   add_path snap child (object_value c fs ~uid snap final);
                   (* A symlink that lands on a directory also serves as
                      a directory alias for parent-fallback probes — but
                      only when the target's children are all plain
                      (a symlink child would be chased by the engine,
                      diverging from the alias's own ACL answer). *)
                   (match Fs.lstat fs ~uid final with
                    | Ok fst when fst.Fs.st_kind = Inode.Directory ->
                      let alias_value =
                        match (acl_of_dir c fs ~uid final, Fs.readdir fs ~uid final) with
                        | Some a, Ok children
                          when List.for_all
                                 (fun n ->
                                   let p =
                                     if String.equal final "/" then "/" ^ n
                                     else final ^ "/" ^ n
                                   in
                                   match Fs.lstat fs ~uid p with
                                   | Ok s -> s.Fs.st_kind <> Inode.Symlink
                                   | Error _ -> false)
                                 children -> intern_acl snap a
                        | _ -> -1
                      in
                      add_dir snap child alias_value
                    | Ok _ | Error _ -> ())
                 | _ -> add_path snap child own_id)
            end)
          names
  in
  (* Root is both a directory and an object governed by itself. *)
  walk_dir "/";
  if not snap.overflow then begin
    match acl_of_dir c fs ~uid "/" with
    | Some a -> add_path snap "/" (intern_acl snap a)
    | None -> add_path snap "/" (-1)
  end;
  snap

(* --- program construction --------------------------------------------- *)

(* Try seeds until every key lands in a distinct slot: the perfect-hash
   construction.  Grows the table (up to the budget) when no seed in
   the trial window works.  A trial only needs occupancy, so each
   length gets one mark array; a slot's mark packs the trial's seed
   (seeds start at 1: the initial 0 never reads as taken) with the
   index of the key that took it, which names the collision witness of
   a failed trial.  A trial whose witness keys are both [present] is
   skipped: it would fail.  The key/value arrays are built once, for
   the winning seed. *)
let key_bits = 24
let key_mask = (1 lsl key_bits) - 1

let build_table ~slot ~(witness : _ witnesses) ~present items =
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
      try_seed 1
  in
  try_len (pow2 4)

let build_program c fs ~uid =
  let snap = snapshot c fs ~uid in
  if snap.overflow then Error "universe exceeds compile budget"
  else begin
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
    (* Per-ACL: exact rows for literal patterns (union per principal,
       matching [Acl.rights_of]), one WILD instruction per wildcard
       entry, RET-terminated blocks in one flat stream. *)
    let code = ref [] and code_n = ref 0 in
    let emit i =
      code := i :: !code;
      incr code_n
    in
    let exact_rows = ref [] in
    let acl_off = Array.make (Array.length acls) 0 in
    let pattern_too_long = ref false in
    Array.iteri
      (fun id acl ->
        acl_off.(id) <- !code_n;
        let literal = Hashtbl.create 8 in
        List.iter
          (fun (e : Entry.t) ->
            let src = Wildcard.source e.Entry.pattern in
            if Wildcard.is_literal e.Entry.pattern then begin
              let prior =
                Option.value (Hashtbl.find_opt literal src) ~default:0
              in
              Hashtbl.replace literal src
                (prior lor rights_mask e.Entry.rights)
            end
            else begin
              if String.length src > Policy.max_pattern then
                pattern_too_long := true;
              emit Policy.op_wild;
              emit (intern src);
              emit (rights_mask e.Entry.rights)
            end)
          (Acl.entries acl);
        emit Policy.op_ret;
        Hashtbl.iter
          (fun principal mask ->
            exact_rows := (principal, id, mask) :: !exact_rows)
          literal)
      acls;
    if !pattern_too_long then Error "wildcard pattern exceeds budget"
    else begin
      let dir_items =
        Hashtbl.fold (fun k v acc -> (k, intern k, v) :: acc) snap.dirs []
        |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
      in
      let path_items =
        Hashtbl.fold (fun k v acc -> (k, intern k, v) :: acc) snap.paths []
        |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
      in
      let ex_items =
        List.map (fun (p, id, mask) -> (p, intern p, id, mask)) !exact_rows
        |> List.sort (fun (a, _, i, _) (b, _, j, _) ->
               match String.compare a b with 0 -> Int.compare i j | c -> c)
      in
      let ex_keys = Hashtbl.create (List.length ex_items) in
      List.iter (fun (p, _, id, _) -> Hashtbl.replace ex_keys (p, id) ()) ex_items;
      match
        ( build_table ~slot:Policy.dir_slot ~witness:c.dir_w
            ~present:(Hashtbl.mem snap.dirs) dir_items,
          build_table ~slot:Policy.path_slot ~witness:c.path_w
            ~present:(Hashtbl.mem snap.paths) path_items,
          build_table
            ~slot:(fun ~seed ~len (k, acl) -> Policy.ex_slot ~seed ~len ~acl k)
            ~witness:c.ex_w ~present:(Hashtbl.mem ex_keys)
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
            Policy.p_gen = Fs.generation fs;
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
        Ok (p, snap)
      | _ -> Error "no perfect hash within table budget"
    end
  end

(* --- the seeded semantic verifier ------------------------------------- *)

(* Deterministic splitmix-style PRNG: no wall-clock, no global state. *)
let prng seed =
  let state = ref (seed land 0x3FFFFFFFFFFFFFF) in
  fun bound ->
    state := ((!state * 0x2545F4914F6CDD1D) + 0x9E3779B97F4A7C1) land max_int;
    (!state lsr 17) mod bound

(* Re-derive the expected verdict for each sampled check from the live
   filesystem — independent of the snapshot the program was built from.
   An expectation of [None] means the engine would use the nobody
   fallback (not a pure ACL function), where the program must answer
   [Unknown].  The filesystem cannot change during one call, so each
   principal is parsed once, and each directory's ACL and each path's
   governing directory are derived at most once; the sample itself
   (seed, count, probe shapes, draw order) is unchanged by that memo. *)
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
  (* Each principal with its canonical rendering — exactly the string
     the engine presents at check time. *)
  let principals =
    let literals =
      List.concat_map
        (fun acl ->
          List.filter_map
            (fun (e : Entry.t) ->
              if Wildcard.is_literal e.Entry.pattern then
                Some (Wildcard.source e.Entry.pattern)
              else None)
            (Acl.entries acl))
        snap.acls
    in
    List.sort_uniq String.compare
      ("unix:nobody" :: "globus:/O=Elsewhere/CN=stranger" :: literals)
    |> List.map (fun s ->
           let p = Principal.of_string s in
           (p, Principal.to_string p))
    |> Array.of_list
  in
  let memo f =
    let tbl = Hashtbl.create 64 in
    fun key ->
      match Hashtbl.find_opt tbl key with
      | Some v -> v
      | None ->
        let v = f key in
        Hashtbl.replace tbl key v;
        v
  in
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

(* --- entry point ------------------------------------------------------ *)

let compile ?tamper ?(verify_seed = 0x1db0) ?(verify_samples = 256) ?cache fs
    ~uid =
  let c = match cache with Some c -> c | None -> create_cache () in
  begin_build c;
  let result =
    match build_program c fs ~uid with
    | Error _ as e -> e
    | Ok (prog, snap) ->
      let prog = match tamper with Some f -> f prog | None -> prog in
      (match Policy.check_program prog with
       | Error msg -> Error ("verifier: " ^ msg)
       | Ok () ->
         (match verify c fs ~uid ~seed:verify_seed ~samples:verify_samples prog snap with
          | Error _ as e -> e
          | Ok () -> Ok prog))
  in
  end_build c;
  result
