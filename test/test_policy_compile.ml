(* Property suite for the compiled-policy bytecode (ISSUE 9): a
   bytecode-enabled engine, a decision-cache engine with bytecode
   pinned off, and a cache-disabled engine all watch the same kernel
   while the namespace is mutated at random — the same storm shape as
   test_enforce_cache (files written and unlinked, renames, a symlink
   retargeted, ACLs rewritten through the engine and behind its back),
   plus delegated checks whose backing chain is revoked mid-storm.
   After every mutation, every (path, principal, right) verdict must be
   byte-identical across the three engines: the compiled program may
   only ever change the cost of an answer, never the answer.  And the
   fail-closed contract: a program the verifier rejects is never
   installed — the engine keeps answering through the interpreter.
   Seeded and deterministic. *)

module Kernel = Idbox_kernel.Kernel
module Metrics = Idbox_kernel.Metrics
module Policy = Idbox_kernel.Policy
module Enforce = Idbox.Enforce
module Policy_compile = Idbox.Policy_compile
module Ca = Idbox_auth.Ca
module Delegation = Idbox_auth.Delegation
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Right = Idbox_acl.Right
module Rights = Idbox_acl.Rights
module Principal = Idbox_identity.Principal
module Fs = Idbox_vfs.Fs
module Path = Idbox_vfs.Path
module Errno = Idbox_vfs.Errno

(* CI reruns the storm under extra seeds via the same knob the chaos
   suites honour. *)
let seeds =
  let base = [ 1; 7; 42; 2005; 90210 ] in
  match Sys.getenv_opt "IDBOX_CHAOS_SEED" with
  | Some s -> ( try (int_of_string s mod 1_000_000) :: base with _ -> base)
  | None -> base

let fred = Principal.of_string "globus:/O=UnivNowhere/CN=Fred"
let jane = Principal.of_string "globus:/O=UnivNowhere/CN=Jane"
let alice = Principal.of_string "kerberos:alice@NOWHERE.EDU"
let identities = [ fred; jane; alice ]
let rights = [ Right.Read; Right.Write; Right.List; Right.Admin; Right.Delete ]

let ok ctx = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" ctx (Errno.to_string e)

let dirs = [ "/w/a"; "/w/b"; "/w/c" ]

(* Objects that may or may not exist at any moment, the symlink, and
   the directories themselves. *)
let probes =
  ("/w/ln" :: dirs)
  @ List.concat_map
      (fun d -> List.init 3 (fun i -> Printf.sprintf "%s/f%d" d i))
      dirs

let patterns =
  [ "globus:/O=UnivNowhere/CN=Fred"; "globus:/O=UnivNowhere/*"; "kerberos:*" ]

let random_acl st =
  let n = 1 + Random.State.int st 3 in
  let all = "rwlxad" in
  Acl.of_entries
    (List.init n (fun i ->
         let pattern = List.nth patterns ((i + Random.State.int st 3) mod 3) in
         let k = 1 + Random.State.int st (String.length all - 1) in
         Entry.make ~pattern (Rights.of_string_exn (String.sub all 0 k))))

let setup () =
  let k = Kernel.create () in
  let sup = Kernel.make_view k ~uid:0 () in
  let bytecode = Enforce.create ~bytecode:true k ~supervisor:sup () in
  let cached = Enforce.create ~bytecode:false k ~supervisor:sup () in
  let uncached = Enforce.create ~caching:false k ~supervisor:sup () in
  List.iter
    (fun d ->
      ok "mkdir" (Fs.mkdir_p (Kernel.fs k) ~uid:0 d);
      ok "seed file" (Fs.write_file (Kernel.fs k) ~uid:0 (d ^ "/f0") "seed"))
    dirs;
  ok "acl a"
    (Enforce.write_acl bytecode ~dir:"/w/a"
       (Acl.of_entries
          [ Entry.make ~pattern:"globus:/O=UnivNowhere/CN=Fred"
              (Rights.of_string_exn "rwl");
            Entry.make ~pattern:"kerberos:*" (Rights.of_string_exn "rl") ]));
  ok "symlink" (Fs.symlink (Kernel.fs k) ~uid:0 ~target:"/w/a/f0" "/w/ln");
  (k, bytecode, cached, uncached)

let verdict e identity path right =
  match Enforce.check_object e ~identity ~path right with
  | Ok () -> "ok"
  | Error e -> Errno.to_string e

let delegated_verdict e identity path right =
  match
    Enforce.check_delegated e ~identity ~grant:(Rights.of_string_exn "rl")
      ~prefix:"/w" ~path right
  with
  | Ok () -> "ok"
  | Error e -> Errno.to_string e

let compare_engines (bytecode, cached, uncached) ~seed ~step =
  List.iter
    (fun path ->
      List.iter
        (fun identity ->
          List.iter
            (fun right ->
              let want = verdict uncached identity path right in
              let via_cache = verdict cached identity path right in
              let via_bc = verdict bytecode identity path right in
              if not (String.equal want via_cache && String.equal want via_bc)
              then
                Alcotest.failf
                  "seed %d step %d: %s %s %c: uncached=%s cached=%s \
                   bytecode=%s"
                  seed step
                  (Principal.to_string identity)
                  path (Right.to_char right) want via_cache via_bc;
              (* The delegated composition: the chain-grant intersection
                 must narrow every tier identically. *)
              let dwant = delegated_verdict uncached identity path right in
              let dbc = delegated_verdict bytecode identity path right in
              if not (String.equal dwant dbc) then
                Alcotest.failf
                  "seed %d step %d: delegated %s %s %c: uncached=%s \
                   bytecode=%s"
                  seed step
                  (Principal.to_string identity)
                  path (Right.to_char right) dwant dbc)
            rights)
        identities)
    probes

let mutate st k engine =
  let fs = Kernel.fs k in
  let dir () = List.nth dirs (Random.State.int st 3) in
  let file () = Printf.sprintf "%s/f%d" (dir ()) (Random.State.int st 3) in
  match Random.State.int st 7 with
  | 0 -> ignore (Fs.write_file fs ~uid:0 (file ()) "data")
  | 1 -> ignore (Fs.unlink fs ~uid:0 (file ()))
  | 2 -> ignore (Fs.rename fs ~uid:0 ~src:(file ()) ~dst:(file ()))
  | 3 ->
    ignore (Fs.unlink fs ~uid:0 "/w/ln");
    ignore (Fs.symlink fs ~uid:0 ~target:(file ()) "/w/ln")
  | 4 -> ignore (Enforce.write_acl engine ~dir:(dir ()) (random_acl st))
  | 5 ->
    let d = dir () in
    ignore
      (Fs.write_file fs ~uid:0
         (d ^ "/" ^ Enforce.acl_filename)
         (Acl.to_string (random_acl st)))
  | _ ->
    let mode = if Random.State.bool st then 0o755 else 0o700 in
    ignore (Fs.chmod fs ~uid:0 ~mode (file ()))

(* The tentpole property: under the mutation storm — ACL edits through
   and behind the engine, renames, symlink retargeting — the bytecode
   engine answers byte-identically to both interpreter tiers at every
   step, and actually uses its program (hits > 0, at least one
   recompile beyond the initial one). *)
let equivalence_under_storm () =
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let ((k, bytecode, cached, uncached) as env) = setup () in
      ignore env;
      compare_engines (bytecode, cached, uncached) ~seed ~step:(-1);
      for step = 0 to 59 do
        mutate st k bytecode;
        compare_engines (bytecode, cached, uncached) ~seed ~step
      done;
      let value name = Metrics.counter_value_of (Kernel.metrics k) name in
      if value "kernel.bytecode.hit" = 0 then
        Alcotest.failf "seed %d: bytecode never answered" seed;
      if value "kernel.bytecode.recompile" < 2 then
        Alcotest.failf "seed %d: no recompile under mutation" seed;
      if value "kernel.bytecode.stale" = 0 then
        Alcotest.failf "seed %d: staleness never observed" seed)
    seeds

(* Chain revocation mid-storm: an admitted delegation chain must die on
   every engine the moment its root is revoked, regardless of which
   tier serves the plain ACL verdicts around it. *)
let revocation_mid_storm () =
  let seed = List.hd seeds in
  let st = Random.State.make [| seed |] in
  let k, bytecode, cached, uncached = setup () in
  let ca = Ca.create ~name:"Storm CA" in
  let rev = Delegation.Revocations.create () in
  let holder = "globus:/O=UnivNowhere/CN=Jane" in
  let chain =
    [ Delegation.mint ca ~delegator:"globus:/O=UnivNowhere/CN=Fred"
        ~delegatee:holder
        ~rights:(Rights.of_string_exn "rl")
        ~prefix:"/w" ~now:0L ~ttl_ns:1_000_000_000L ~hops:4 () ]
  in
  let admit e =
    Enforce.admit_chain e ~trusted:[ ca ] ~revocations:rev
      ~now:(Kernel.now k) ~holder chain
  in
  let engines = [ bytecode; cached; uncached ] in
  List.iter
    (fun e ->
      match admit e with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "pre-storm admit: %s" (Delegation.failure_name f))
    engines;
  for step = 0 to 19 do
    mutate st k bytecode;
    compare_engines (bytecode, cached, uncached) ~seed ~step
  done;
  ignore (Delegation.Revocations.revoke rev "globus:/O=UnivNowhere/CN=Fred");
  List.iter
    (fun e ->
      match admit e with
      | Ok _ -> Alcotest.fail "revoked chain admitted"
      | Error _ -> ())
    engines;
  for step = 20 to 39 do
    mutate st k bytecode;
    compare_engines (bytecode, cached, uncached) ~seed ~step
  done

(* Fail closed: a tampered program must be rejected by the verifier and
   never installed — and every verdict keeps coming, byte-identical,
   from the interpreter. *)
let verifier_rejects_fail_closed () =
  let k, bytecode, cached, uncached = setup () in
  ignore cached;
  (match Enforce.check_object bytecode ~identity:fred ~path:"/w/a/f0" Right.Read with
   | Ok () -> ()
   | Error e -> Alcotest.failf "healthy check: %s" (Errno.to_string e));
  (match Enforce.bytecode_program bytecode with
   | Some _ -> ()
   | None -> Alcotest.fail "healthy engine holds no program");
  (* Corrupt every fresh compile into a structurally invalid program:
     an oversized code segment the bounds verifier must reject. *)
  Enforce.set_bytecode_tamper bytecode
    (Some
       (fun p ->
         { p with
           Policy.p_code =
             Array.make (Policy.max_code + Policy.instr_width) 0 }));
  let value name = Metrics.counter_value_of (Kernel.metrics k) name in
  let rejects0 = value "kernel.bytecode.reject" in
  List.iter
    (fun path ->
      List.iter
        (fun identity ->
          List.iter
            (fun right ->
              let want = verdict uncached identity path right in
              let got = verdict bytecode identity path right in
              if not (String.equal want got) then
                Alcotest.failf "fail-closed: %s %s %c: uncached=%s got=%s"
                  (Principal.to_string identity)
                  path (Right.to_char right) want got)
            rights)
        identities)
    probes;
  if value "kernel.bytecode.reject" <= rejects0 then
    Alcotest.fail "verifier never rejected the tampered program";
  (match Enforce.bytecode_program bytecode with
   | None -> ()
   | Some _ -> Alcotest.fail "tampered program was installed");
  (match Kernel.policy k with
   | None -> ()
   | Some _ -> Alcotest.fail "tampered program reached the kernel slot");
  (* Clearing the tamper hook recovers on the next check. *)
  Enforce.set_bytecode_tamper bytecode None;
  (match Enforce.check_object bytecode ~identity:fred ~path:"/w/a/f0" Right.Read with
   | Ok () -> ()
   | Error e -> Alcotest.failf "recovered check: %s" (Errno.to_string e));
  (match Enforce.bytecode_program bytecode with
   | Some _ -> ()
   | None -> Alcotest.fail "engine did not recover a program")

(* The perf contract: a warm bytecode hit makes zero delegated syscalls
   and charges less than a decision-cache hit would. *)
let warm_hit_is_cheap () =
  let k, bytecode, _, _ = setup () in
  ignore (Enforce.check_object bytecode ~identity:fred ~path:"/w/a/f0" Right.Read);
  let value name = Metrics.counter_value_of (Kernel.metrics k) name in
  let d0 = (Kernel.stats k).Kernel.delegated in
  let hits0 = value "kernel.bytecode.hit" in
  let t0 = Kernel.now k in
  (match Enforce.check_object bytecode ~identity:fred ~path:"/w/a/f0" Right.Read with
   | Ok () -> ()
   | Error e -> Alcotest.failf "warm check: %s" (Errno.to_string e));
  let elapsed = Int64.sub (Kernel.now k) t0 in
  Alcotest.(check int)
    "zero delegated syscalls on the warm hit" 0
    ((Kernel.stats k).Kernel.delegated - d0);
  Alcotest.(check int) "bytecode hit" (hits0 + 1) (value "kernel.bytecode.hit");
  let cost = Kernel.cost k in
  if Int64.compare elapsed cost.Idbox_kernel.Cost.gen_check_ns >= 0 then
    Alcotest.failf "warm bytecode check cost %Ldns, not below one gen check"
      elapsed

(* --- the deferred build ------------------------------------------------

   A compile attempt is charged when it is made, but the host build
   only runs when a check at that generation reads the program. *)

let counters k names =
  List.map (fun n -> Metrics.counter_value_of (Kernel.metrics k) n) names

let bc_counts k =
  match
    counters k
      [ "kernel.bytecode.recompile"; "kernel.bytecode.build";
        "kernel.bytecode.reject"; "kernel.bytecode.hit";
        "kernel.bytecode.stale" ]
  with
  | [ recompile; build; reject; hit; stale ] -> (recompile, build, reject, hit, stale)
  | _ -> assert false

(* (a) N charged attempts with no check between them run no build, and
   (b) the next check runs exactly one and is answered by it. *)
let mutations_charge_without_building () =
  let k, bytecode, _, uncached = setup () in
  ignore (verdict bytecode fred "/w/a/f0" Right.Read);
  let r0, b0, _, h0, s0 = bc_counts k in
  let n = 5 in
  let compile_ns = (Kernel.cost k).Idbox_kernel.Cost.bytecode_compile_ns in
  let t0 = Kernel.now k in
  for i = 1 to n do
    (* A free host-side mutation, then the session-auth refresh: the
       only charge on the clock is the compile attempt itself. *)
    ok "mutate" (Fs.write_file (Kernel.fs k) ~uid:0 (Printf.sprintf "/w/b/n%d" i) "x");
    Enforce.refresh_bytecode bytecode
  done;
  Alcotest.(check int64) "N compiles charged on the simulated clock"
    (Int64.mul (Int64.of_int n) compile_ns)
    (Int64.sub (Kernel.now k) t0);
  for _ = 1 to n do
    ok "write_acl" (Enforce.write_acl bytecode ~dir:"/w/b" (random_acl (Random.State.make [| 3 |])))
  done;
  let r1, b1, _, h1, s1 = bc_counts k in
  Alcotest.(check int) "2N attempts charged" (2 * n) (r1 - r0);
  Alcotest.(check int) "no build ran" 0 (b1 - b0);
  Alcotest.(check int) "no check was served" 0 (h1 - h0 + (s1 - s0));
  Alcotest.(check string) "verdict"
    (verdict uncached jane "/w/b/f0" Right.Write)
    (verdict bytecode jane "/w/b/f0" Right.Write);
  let _, b2, _, h2, s2 = bc_counts k in
  Alcotest.(check int) "the next check runs exactly one build" 1 (b2 - b1);
  Alcotest.(check int) "answered from the program" 1 (h2 - h1);
  Alcotest.(check int) "not a stale fallback" 0 (s2 - s1);
  match (Enforce.bytecode_program bytecode, Kernel.policy k) with
  | Some p, Some q when p == q ->
    Alcotest.(check int) "program is current" (Fs.generation (Kernel.fs k))
      (Policy.generation p)
  | _ -> Alcotest.fail "built program not installed"

(* (c) A tampered build is still rejected when the build is deferred:
   the check after the mutation fails closed and the kernel slot stays
   empty. *)
let deferred_tamper_fails_closed () =
  let k, bytecode, _, uncached = setup () in
  ignore (verdict bytecode fred "/w/a/f0" Right.Read);
  Enforce.set_bytecode_tamper bytecode
    (Some
       (fun p ->
         { p with
           Policy.p_code =
             Array.make (Policy.max_code + Policy.instr_width) 0 }));
  ok "write_acl"
    (Enforce.write_acl bytecode ~dir:"/w/c"
       (Acl.of_entries [ Entry.make ~pattern:"kerberos:*" (Rights.of_string_exn "rl") ]));
  let _, b0, j0, _, _ = bc_counts k in
  List.iter
    (fun path ->
      List.iter
        (fun identity ->
          Alcotest.(check string) ("fail-closed " ^ path)
            (verdict uncached identity path Right.Read)
            (verdict bytecode identity path Right.Read))
        identities)
    probes;
  let _, b1, j1, _, _ = bc_counts k in
  Alcotest.(check int) "one build at this generation" 1 (b1 - b0);
  Alcotest.(check int) "and the verifier rejected it" 1 (j1 - j0);
  (match Kernel.policy k with
   | None -> ()
   | Some _ -> Alcotest.fail "tampered program reached the kernel slot");
  match Enforce.bytecode_program bytecode with
  | None -> ()
  | Some _ -> Alcotest.fail "tampered program was installed"

(* Swap the ACL ids of two directory slots: [check_program] still
   passes (every value is a valid id, every key where it hashes), so
   only the semantic sample can catch it. *)
let swap_dirs a b (p : Policy.t) =
  let slot name =
    let found = ref (-1) in
    Array.iteri
      (fun i key ->
        if key >= 0 && String.equal p.Policy.p_pool.(key) name then found := i)
      p.Policy.p_dir_key;
    if !found < 0 then Alcotest.failf "no dir slot for %s" name;
    !found
  in
  let i = slot a and j = slot b in
  let v = Array.copy p.Policy.p_dir_val in
  let tmp = v.(i) in
  v.(i) <- v.(j);
  v.(j) <- tmp;
  { p with Policy.p_dir_val = v }

(* (d) A semantic tamper is still rejected by the memoized verifier,
   both by [compile] and through a deferred build in the engine (this
   setup's symlink keeps every build cold; [patched_tamper_rejected]
   runs the same swap on the patched path). *)
let semantic_tamper_rejected () =
  let k, bytecode, _, uncached = setup () in
  let tamper = swap_dirs "/w/a" "/w/b" in
  let fs = Kernel.fs k in
  (match Policy_compile.compile fs ~uid:0 with
   | Ok p ->
     let bad = tamper p in
     if Array.for_all2 ( = ) bad.Policy.p_dir_val p.Policy.p_dir_val then
       Alcotest.fail "the swap changed nothing";
     (match Policy.check_program bad with
      | Ok () -> ()
      | Error m -> Alcotest.failf "swap broke the structure: %s" m)
   | Error m -> Alcotest.failf "healthy compile: %s" m);
  (match Policy_compile.compile ~tamper fs ~uid:0 with
   | Ok _ -> Alcotest.fail "semantic tamper passed the verifier"
   | Error _ -> ());
  Enforce.set_bytecode_tamper bytecode (Some tamper);
  ok "write_acl" (Enforce.write_acl bytecode ~dir:"/w/c" (random_acl (Random.State.make [| 5 |])));
  let _, b0, j0, _, _ = bc_counts k in
  List.iter
    (fun path ->
      List.iter
        (fun right ->
          Alcotest.(check string) ("fail-closed " ^ path)
            (verdict uncached jane path right)
            (verdict bytecode jane path right))
        rights)
    probes;
  let _, b1, j1, _, _ = bc_counts k in
  Alcotest.(check (pair int int)) "one build, rejected" (1, 1) (b1 - b0, j1 - j0);
  match Kernel.policy k with
  | None -> ()
  | Some _ -> Alcotest.fail "tampered program reached the kernel slot"

(* --- the patched path rejects every tamper ------------------------------

   A filesystem that never held a symlink, so a build with a verified
   predecessor takes the patched path.  /w/a and /w/b keep their ACLs;
   the mutation rewrites /w/c's to a new one with a literal and a
   wildcard entry.  Each tamper kind hits an entry the mutation touched
   (under /w/c, or the new ACL) and one it did not (under /w/a, or
   /w/a's ACL), and every one must be rejected, failing closed. *)

let setup_plain () =
  let k = Kernel.create () in
  let sup = Kernel.make_view k ~uid:0 () in
  let bytecode = Enforce.create ~bytecode:true k ~supervisor:sup () in
  let uncached = Enforce.create ~caching:false k ~supervisor:sup () in
  List.iter
    (fun d ->
      ok "mkdir" (Fs.mkdir_p (Kernel.fs k) ~uid:0 d);
      ok "seed file" (Fs.write_file (Kernel.fs k) ~uid:0 (d ^ "/f0") "seed"))
    dirs;
  let acl entries =
    Acl.of_entries (List.map (fun (p, r) -> Entry.make ~pattern:p (Rights.of_string_exn r)) entries)
  in
  ok "acl a"
    (Enforce.write_acl bytecode ~dir:"/w/a"
       (acl [ ("globus:/O=UnivNowhere/CN=Fred", "rwl"); ("kerberos:*", "rl") ]));
  ok "acl b" (Enforce.write_acl bytecode ~dir:"/w/b" (acl [ ("kerberos:alice@NOWHERE.EDU", "r") ]));
  let touched () =
    Enforce.write_acl bytecode ~dir:"/w/c"
      (acl [ ("globus:/O=UnivNowhere/CN=Fred", "r"); ("globus:/O=UnivNowhere/*", "l") ])
  in
  (k, bytecode, uncached, touched)

let slot_of keys (p : Policy.t) name =
  let found = ref (-1) in
  Array.iteri (fun i k -> if k >= 0 && String.equal p.Policy.p_pool.(k) name then found := i) keys;
  if !found < 0 then Alcotest.failf "no slot for %s" name;
  !found

let acl_of_dir (p : Policy.t) dir = p.p_dir_val.(slot_of p.p_dir_key p dir)

let with_array a f =
  let a = Array.copy a in
  f a;
  a

(* Point [dir]'s (or [path]'s) entry at another ACL. *)
let other (p : Policy.t) v = (v + 1) mod Array.length p.p_acl_off

let tamper_dir dir (p : Policy.t) =
  let i = slot_of p.p_dir_key p dir in
  { p with p_dir_val = with_array p.p_dir_val (fun a -> a.(i) <- other p a.(i)) }

let tamper_path path (p : Policy.t) =
  let i = slot_of p.p_path_key p path in
  { p with p_path_val = with_array p.p_path_val (fun a -> a.(i) <- other p a.(i)) }

(* Fred's exact row in [dir]'s ACL gains the admin bit. *)
let tamper_exact dir (p : Policy.t) =
  let acl = acl_of_dir p dir in
  let found = ref (-1) in
  Array.iteri
    (fun i k ->
      if k >= 0 && p.p_ex_acl.(i) = acl
         && String.equal p.p_pool.(k) "globus:/O=UnivNowhere/CN=Fred"
      then found := i)
    p.p_ex_key;
  if !found < 0 then Alcotest.failf "no exact row for Fred in %s" dir;
  if p.p_ex_mask.(!found) land 16 <> 0 then Alcotest.failf "Fred already holds a in %s" dir;
  { p with p_ex_mask = with_array p.p_ex_mask (fun a -> a.(!found) <- a.(!found) lor 16) }

(* The first WILD of [dir]'s ACL grants every right. *)
let tamper_wild dir (p : Policy.t) =
  let pc = p.p_acl_off.(acl_of_dir p dir) in
  if p.p_code.(pc) <> Policy.op_wild then Alcotest.failf "no WILD in %s's block" dir;
  { p with p_code = with_array p.p_code (fun a -> a.(pc + 2) <- 63) }

(* The pool string of the first WILD pattern of [dir]'s ACL matches
   everyone. *)
let tamper_pool dir (p : Policy.t) =
  let pc = p.p_acl_off.(acl_of_dir p dir) in
  if p.p_code.(pc) <> Policy.op_wild then Alcotest.failf "no WILD in %s's block" dir;
  let s = p.p_code.(pc + 1) in
  { p with p_pool = with_array p.p_pool (fun a -> a.(s) <- "*") }

let patched_tampers =
  [
    ("dir value, touched", tamper_dir "/w/c");
    ("dir value, untouched", tamper_dir "/w/a");
    ("path value, touched", tamper_path "/w/c/f0");
    ("path value, untouched", tamper_path "/w/a/f0");
    ("exact mask, touched", tamper_exact "/w/c");
    ("exact mask, untouched", tamper_exact "/w/a");
    ("WILD operand, touched", tamper_wild "/w/c");
    ("WILD operand, untouched", tamper_wild "/w/a");
    ("pool string, touched", tamper_pool "/w/c");
    ("pool string, untouched", tamper_pool "/w/a");
    ("dir swap, untouched", swap_dirs "/w/a" "/w/b");
  ]

let patched_tamper_rejected () =
  List.iter
    (fun (name, tamper) ->
      let k, bytecode, uncached, touched = setup_plain () in
      let fs = Kernel.fs k in
      let cache = Policy_compile.shared_cache fs in
      ignore (verdict bytecode fred "/w/a/f0" Right.Read);
      (match Enforce.bytecode_program bytecode with
       | Some _ -> ()
       | None -> Alcotest.failf "%s: no verified program to patch" name);
      Enforce.set_bytecode_tamper bytecode (Some tamper);
      ok "touch /w/c" (touched ());
      let _, b0, j0, _, _ = bc_counts k in
      List.iter
        (fun path ->
          List.iter
            (fun identity ->
              List.iter
                (fun right ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s: fail-closed %s" name path)
                    (verdict uncached identity path right)
                    (verdict bytecode identity path right))
                rights)
            identities)
        probes;
      let _, b1, j1, _, _ = bc_counts k in
      Alcotest.(check (pair int int)) (name ^ ": one build, rejected") (1, 1) (b1 - b0, j1 - j0);
      if Policy_compile.last_build cache <> Some Policy_compile.Patched then
        Alcotest.failf "%s: the build was not patched" name;
      (match Kernel.policy k with
       | None -> ()
       | Some _ -> Alcotest.failf "%s: tampered program reached the kernel slot" name);
      (* The same tamper, compiled directly, is rejected on every retry. *)
      for _ = 1 to 2 do
        match Policy_compile.compile ~tamper ~cache fs ~uid:0 with
        | Ok _ -> Alcotest.failf "%s: patched build accepted" name
        | Error _ -> ()
      done;
      (* And the untampered build at this generation is accepted. *)
      match Policy_compile.compile ~cache fs ~uid:0 with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s: healthy patched build: %s" name m)
    patched_tampers

(* --- byte-identical builds --------------------------------------------- *)

(* [Policy.hash] values taken from the FNV-1a loop as first written:
   the seed trials place keys by it, so it must never drift. *)
let hash_is_pinned () =
  List.iter
    (fun (seed, s, want) ->
      Alcotest.(check int) (Printf.sprintf "hash %d %S" seed s) want
        (Policy.hash ~seed s))
    [
      (0, "", 2166136261);
      (0, "a", 604776748);
      (1, "/g/d00/f0", 889477356);
      (7, "globus:/O=UnivNowhere/CN=Fred", 502047577);
      (0x1db0, "kerberos:alice@NOWHERE.EDU", 147412734);
      (123456789, "\xff\x00\x80 binary", 817028626);
    ]

let right_bit_is_index () =
  List.iteri
    (fun i r ->
      Alcotest.(check int)
        (Printf.sprintf "right_bit %c" (Right.to_char r))
        i (Policy_compile.right_bit r))
    Right.all

(* A fixed tree large enough that the path table grows twice and every
   table needs more than one seed trial, with literal and wildcard
   entries, a deny-all (unparseable) ACL, un-ACL'd directories and
   symlinks to files and directories. *)
let golden_fs () =
  let fs = Fs.create () in
  let put path text = ok "golden put" (Fs.write_file fs ~uid:0 path text) in
  let acl entries =
    Acl.to_string
      (Acl.of_entries
         (List.map
            (fun (pattern, r) -> Entry.make ~pattern (Rights.of_string_exn r))
            entries))
  in
  ok "golden root" (Fs.mkdir_p fs ~uid:0 "/g");
  put "/g/.__acl"
    (acl [ ("globus:/O=UnivNowhere/*", "rl"); ("unix:root", "rwlxad") ]);
  for d = 0 to 23 do
    let dir = Printf.sprintf "/g/d%02d" d in
    ok "golden dir" (Fs.mkdir_p fs ~uid:0 dir);
    (match d mod 4 with
     | 0 -> ()
     | 1 ->
       put (dir ^ "/.__acl")
         (acl
            [ (Printf.sprintf "globus:/O=UnivNowhere/CN=User%d" d, "rwl");
              ("kerberos:*@NOWHERE.EDU", "rl") ])
     | 2 ->
       put (dir ^ "/.__acl")
         (acl
            [ ("globus:/O=UnivNowhere/CN=Fred", "rwlda");
              (Printf.sprintf "kerberos:user%d@NOWHERE.EDU" d, "r");
              ("globus:/O=UnivNowhere/CN=Fred", "x") ])
     | _ -> put (dir ^ "/.__acl") "not an acl ((");
    for f = 0 to 5 do
      put (Printf.sprintf "%s/f%d" dir f) (string_of_int (d * f))
    done;
    if d mod 5 = 0 then
      ok "golden link"
        (Fs.symlink fs ~uid:0
           ~target:(Printf.sprintf "/g/d%02d/f0" ((d + 7) mod 24))
           (dir ^ "/ln"));
    if d mod 7 = 0 then
      ok "golden dir link"
        (Fs.symlink fs ~uid:0
           ~target:(Printf.sprintf "/g/d%02d" ((d + 3) mod 24))
           (dir ^ "/dl"))
  done;
  fs

let program_digest (p : Policy.t) =
  let b = Buffer.create 4096 in
  let ints a =
    Array.iter (fun i -> Buffer.add_string b (string_of_int i ^ ",")) a;
    Buffer.add_char b '|'
  in
  Array.iter (fun s -> Buffer.add_string b (s ^ "\x00")) p.Policy.p_pool;
  Buffer.add_char b '|';
  List.iter ints
    [ p.p_code; p.p_acl_off; p.p_dir_key; p.p_dir_val; p.p_path_key;
      p.p_path_val; p.p_ex_key; p.p_ex_acl; p.p_ex_mask ];
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Seeds, table lengths and a digest of every program array, pinned to
   the values the original per-trial seed search and unmemoized
   verifier produced on this tree. *)
let golden_program () =
  match Policy_compile.compile (golden_fs ()) ~uid:0 with
  | Error m -> Alcotest.failf "golden compile: %s" m
  | Ok p ->
    Alcotest.(check (list int)) "dir/path/exact seeds" [ 2; 38; 12 ]
      [ p.p_dir_seed; p.p_path_seed; p.p_ex_seed ];
    Alcotest.(check (list int)) "table lengths" [ 128; 2048; 64 ]
      [ Array.length p.p_dir_key; Array.length p.p_path_key;
        Array.length p.p_ex_key ];
    Alcotest.(check string) "program digest" "bad0b7c9c9a3ffdc489d36fc1be47e3b"
      (program_digest p)

(* --- carried work: a warm build is a cold build ------------------------

   One filesystem mutated at random: creates, unlinks, mkdir and rmdir
   (some spelled through ".."), ACL writes including an unparseable one
   and ACL files removed (the nobody fallback), file and directory
   renames, chmods and chowns of directories and of their ACL files
   (unenumerable subtrees, unreadable ACLs), and a symlink that turns
   the no-symlink fast path off.  Three uids share the filesystem's one
   cache and build at interleaved generations, as World members do.
   After every step each build that carries state equals a cold build,
   and takes the patched path whenever it has a verified build to patch
   and no symlink ever existed.  A tampered build is rejected mid-
   sequence and must leave that uid's verified build in place.  A twin
   filesystem that once held a symlink (so it never takes the fast
   path) replays the same steps, and its cold build must match too,
   modulo the generation the extra link and unlink moved. *)

let carried_acls =
  [|
    Acl.to_string
      (Acl.of_entries
         [ Entry.make ~pattern:"globus:/O=UnivNowhere/*" (Rights.of_string_exn "rl") ]);
    Acl.to_string
      (Acl.of_entries
         [ Entry.make ~pattern:"globus:/O=UnivNowhere/CN=Fred" (Rights.of_string_exn "rwlda");
           Entry.make ~pattern:"kerberos:alice@NOWHERE.EDU" (Rights.of_string_exn "r") ]);
    Acl.to_string
      (Acl.of_entries
         [ Entry.make ~pattern:"kerberos:*@NOWHERE.EDU" (Rights.of_string_exn "rwl");
           Entry.make ~pattern:"unix:root" (Rights.of_string_exn "rwlxad") ]);
    "not an acl ((";
  |]

let carried_uids = [| 0; 1000; 1001 |]

(* Applies one step; true when it created a symlink.  Step kind 14 is
   the tampered build, which the property runs itself. *)
let carried_step fs (kind, a, b, c) =
  let dir i = Printf.sprintf "/d%d" (i mod 4) in
  let sub i j = Printf.sprintf "%s/e%d" (dir i) (j mod 3) in
  let file i j = Printf.sprintf "%s/f%d" (if j mod 2 = 0 then dir i else sub i j) (j mod 5) in
  let acl_file i j = Path.join (if j mod 2 = 0 then dir i else sub i j) Acl.filename in
  let applied =
    Result.is_ok
    (match kind with
     | 0 -> Fs.write_file fs ~uid:0 (file a b) (string_of_int c)
     | 1 -> Fs.unlink fs ~uid:0 (file a b)
     | 2 ->
       (* Spelled through "..": the same directory, a different string. *)
       Result.map ignore
         (Fs.mkdir fs ~uid:0 ~mode:0o755 (Printf.sprintf "%s/../%s" (dir b) (String.sub (sub a c) 1 5)))
     | 3 -> Fs.rmdir fs ~uid:0 (sub a c)
     | 4 ->
       Fs.write_file fs ~uid:0 (acl_file a c) carried_acls.(b mod Array.length carried_acls)
     | 5 -> Fs.rename fs ~uid:0 ~src:(file a b) ~dst:(file b c)
     | 6 -> Fs.chmod fs ~uid:0 ~mode:(if c mod 2 = 0 then 0o700 else 0o755) (dir a)
     | 7 -> Fs.mkdir_p fs ~uid:0 (sub a b)
     | 8 ->
       if c mod 8 = 0 then Fs.symlink fs ~uid:0 ~target:(file b c) (Printf.sprintf "%s/ln%d" (dir a) b)
       else Fs.write_file fs ~uid:0 (file a c) "x"
     | 9 -> Fs.rename fs ~uid:0 ~src:(sub a b) ~dst:(sub c (b + 1))
     | 10 ->
       Fs.chown fs ~uid:0 ~owner:carried_uids.(c mod 3)
         (if b mod 2 = 0 then dir a else sub a b)
     | 11 -> Fs.chmod fs ~uid:0 ~mode:(if c mod 2 = 0 then 0o600 else 0o644) (acl_file a b)
     | 12 -> Fs.chown fs ~uid:0 ~owner:carried_uids.(c mod 3) (acl_file a b)
     | 13 -> Fs.unlink fs ~uid:0 (acl_file a b)
     | _ -> Ok ())
  in
  applied && kind = 8 && c mod 8 = 0

let carried_fs ~twin =
  let fs = Fs.create () in
  if twin then begin
    ok "twin link" (Fs.symlink fs ~uid:0 ~target:"/" "/once");
    ok "twin unlink" (Fs.unlink fs ~uid:0 "/once")
  end;
  for i = 0 to 3 do
    ok "carried dir" (Fs.mkdir_p fs ~uid:0 (Printf.sprintf "/d%d/e0" i))
  done;
  fs

let oversize (p : Policy.t) =
  { p with Policy.p_code = Array.make (Policy.max_code + Policy.instr_width) 0 }

let carried_equals_cold =
  let step = QCheck.Gen.(quad (int_bound 14) small_nat small_nat small_nat) in
  QCheck.Test.make ~name:"carried-state compile = cold compile" ~count:40
    (QCheck.make QCheck.Gen.(list_size (int_range 10 30) step))
    (fun steps ->
      let fs = carried_fs ~twin:false and twin = carried_fs ~twin:true in
      let cache = Policy_compile.shared_cache fs in
      let strip = Result.map (fun (p : Policy.t) -> { p with Policy.p_gen = 0 }) in
      let linked = ref false in
      let verified = Hashtbl.create 3 in
      List.for_all
        (fun ((kind, a, _, _) as st) ->
          if carried_step fs st then linked := true;
          ignore (carried_step twin st);
          if Fs.ever_symlinked fs <> !linked || not (Fs.ever_symlinked twin) then
            QCheck.Test.fail_report "the symlink flag is not monotone from the first link";
          let expect uid =
            if Hashtbl.mem verified uid && not !linked then Policy_compile.Patched
            else Policy_compile.Cold
          in
          if kind = 14 then begin
            let uid = carried_uids.(a mod 3) in
            let want = expect uid in
            if Result.is_ok (Policy_compile.compile ~tamper:oversize ~cache fs ~uid) then
              QCheck.Test.fail_reportf "uid %d: a tampered build was accepted" uid;
            if Policy_compile.last_build cache <> Some want then
              QCheck.Test.fail_reportf "uid %d: the tampered build took the wrong path" uid
          end;
          Array.for_all
            (fun uid ->
              (* At each step one uid, picked by the step, sits out. *)
              kind = 14 || (List.length steps + a + uid) mod 3 = 0
              ||
              let want = expect uid in
              let cold = Policy_compile.compile fs ~uid in
              let warm = Policy_compile.compile ~cache fs ~uid in
              let slow = Policy_compile.compile twin ~uid in
              if Policy_compile.last_build cache <> Some want then
                QCheck.Test.fail_reportf "uid %d: the carried build took the wrong path" uid;
              if warm <> cold then QCheck.Test.fail_reportf "uid %d: carried build differs" uid;
              if strip slow <> strip cold then
                QCheck.Test.fail_reportf "uid %d: fast path differs from the chase" uid;
              if Result.is_ok warm then Hashtbl.replace verified uid ();
              true)
            carried_uids)
        steps)

let suite =
  [
    QCheck_alcotest.to_alcotest carried_equals_cold;
    Alcotest.test_case "bytecode = interpreter under mutation storm" `Quick
      equivalence_under_storm;
    Alcotest.test_case "chain revocation mid-storm" `Quick revocation_mid_storm;
    Alcotest.test_case "verifier rejection fails closed" `Quick
      verifier_rejects_fail_closed;
    Alcotest.test_case "warm hit: zero delegated, below gen-check" `Quick
      warm_hit_is_cheap;
    Alcotest.test_case "mutations charge compiles, build nothing" `Quick
      mutations_charge_without_building;
    Alcotest.test_case "deferred build: tamper fails closed" `Quick
      deferred_tamper_fails_closed;
    Alcotest.test_case "semantic tamper rejected by memoized verifier" `Quick
      semantic_tamper_rejected;
    Alcotest.test_case "patched build rejects every tamper" `Quick patched_tamper_rejected;
    Alcotest.test_case "Policy.hash pinned" `Quick hash_is_pinned;
    Alcotest.test_case "right_bit = index in Right.all" `Quick right_bit_is_index;
    Alcotest.test_case "golden program is byte-identical" `Quick golden_program;
  ]
