(* box_meta: one boxed visitor runs a metadata and small-I/O mix over a
   pre-staged tree of ACL'd directories.  Every operation is one trapped
   system call, so this is the paper's per-trapped-call cost (Fig. 4/5):
   Kernel/Sysent, Tracer/Iochannel, Box, the Enforce bytecode tier and
   Acl.  Nothing in the namespace changes during the timed window, and
   no Chirp, network or cluster code runs. *)

module Kernel = Idbox_kernel.Kernel
module Account = Idbox_kernel.Account
module Libc = Idbox_kernel.Libc
module Box = Idbox.Box
module Enforce = Idbox.Enforce
module Policy_compile = Idbox.Policy_compile
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Right = Idbox_acl.Right
module Principal = Idbox_identity.Principal
module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno
open Common

type params = {
  dirs : int;  (** Staged directories; one in eight denies the visitor. *)
  small_files : int;  (** Small files per directory (plus one 8 KiB+ blob). *)
  items : int;  (** Length of the generated mix before it repeats. *)
  floor : int;  (** Minimum timed syscalls per run. *)
  setups : int;  (** Repeated set-ups; [setup_s] is their median. *)
}

let default = { dirs = 64; small_files = 4; items = 4096; floor = 300_000; setups = 5 }

let visitor = Principal.of_string "globus:/O=Bench/CN=visitor"
let root = "/data"

(* {1 The model: what was staged, known independently of the box} *)

type dir = {
  d_path : string;
  d_denied : bool;
  d_acl : Acl.t;
  d_files : (string * string) array;  (** (name, content) *)
}

let distractors st =
  List.init
    (2 + Random.State.int st 5)
    (fun i ->
      match i mod 3 with
      | 0 ->
        Entry.make
          ~pattern:(Printf.sprintf "globus:/O=Other/CN=user%d" (Random.State.int st 1000))
          (Rights.of_string_exn "rwl")
      | 1 -> Entry.make ~pattern:"kerberos:*@FAR.EDU" (Rights.of_string_exn "rl")
      | _ ->
        Entry.make
          ~pattern:(Printf.sprintf "hostname:node%d.far.edu" (Random.State.int st 100))
          (Rights.of_string_exn "l"))

let gen_dirs ~seed p =
  let st = rng ~seed ~salt:1 in
  let order = shuffle st (Array.init p.dirs Fun.id) in
  let denied = Array.make p.dirs false in
  for i = 0 to (p.dirs / 8) - 1 do
    denied.(order.(i)) <- true
  done;
  Array.init p.dirs (fun i ->
      let grant =
        if denied.(i) then []
        else if Random.State.bool st then
          [ Entry.make ~pattern:"globus:/O=Bench/*" (Rights.of_string_exn "rl") ]
        else
          [ Entry.make ~pattern:(Principal.to_string visitor) (Rights.of_string_exn "rl") ]
      in
      let files =
        Array.init (p.small_files + 1) (fun j ->
            if j = p.small_files then
              ("blob", payload st (8192 + Random.State.int st 4096))
            else (Printf.sprintf "f%d" j, payload st (64 + Random.State.int st 192)))
      in
      {
        d_path = Printf.sprintf "%s/d%02d" root i;
        d_denied = denied.(i);
        d_acl = Acl.of_entries (grant @ distractors st);
        d_files = files;
      })

(* {1 The generated op stream} *)

type call =
  | C_stat of string
  | C_open of string
  | C_pread of int
  | C_close
  | C_readdir of string
  | C_getacl of string

type outcome =
  | O_unit
  | O_size of int
  | O_data of string
  | O_names of string list
  | O_text of string
  | O_err of Errno.t

type plan = {
  calls : call array;
  starts : bool array;  (** Does an item (a whole open/pread/close) start here? *)
  model : outcome array;  (** The model's expectation for each call. *)
  dir_of : int array;  (** Which staged directory each call touches. *)
}

(* The mix has exact proportions whatever the seed — 30% stat, 35%
   small read, 10% 8 KiB read, 15% readdir, 10% getacl, and one item in
   eight aimed at a denied directory — so seeds change which objects
   are touched and in what order, not how much of each kind of work a
   run does.  Allowed directories are picked with Zipf(0.8) popularity,
   denied ones uniformly. *)
let gen_plan ~seed p (dirs : dir array) =
  let st = rng ~seed ~salt:2 in
  let allowed = List.filter (fun i -> not dirs.(i).d_denied) (List.init p.dirs Fun.id) in
  let denied = List.filter (fun i -> dirs.(i).d_denied) (List.init p.dirs Fun.id) in
  let allowed = shuffle st (Array.of_list allowed) and denied = Array.of_list denied in
  let pick_allowed = zipf ~s:0.8 (Array.length allowed) in
  let schedule =
    shuffle st
      (Array.init p.items (fun i ->
           let kind = i * 100 / p.items in
           (kind, i mod 8 = 7)))
  in
  let calls = ref [] in
  let push ~start d c m = calls := (start, d, c, m) :: !calls in
  Array.iter
    (fun (kind, to_denied) ->
      let di =
        if to_denied then denied.(Random.State.int st (Array.length denied))
        else allowed.(pick_allowed st)
      in
      let d = dirs.(di) in
      let file () = d.d_files.(Random.State.int st p.small_files) in
      let deny_or m = if to_denied then O_err Errno.EACCES else m in
      let read (name, content) len =
        let path = d.d_path ^ "/" ^ name in
        push ~start:true di (C_open path) (deny_or O_unit);
        if not to_denied then begin
          push ~start:false di (C_pread len)
            (O_data (String.sub content 0 (min len (String.length content))));
          push ~start:false di C_close O_unit
        end
      in
      match kind with
      | k when k < 30 ->
        let name, content = file () in
        push ~start:true di
          (C_stat (d.d_path ^ "/" ^ name))
          (deny_or (O_size (String.length content)))
      | k when k < 65 -> read (file ()) 64
      | k when k < 75 -> read d.d_files.(p.small_files) 8192
      | k when k < 90 ->
        let names = Array.to_list (Array.map fst d.d_files) in
        push ~start:true di (C_readdir d.d_path)
          (deny_or (O_names (List.sort String.compare names)))
      | _ -> push ~start:true di (C_getacl d.d_path) (deny_or (O_text (Acl.to_string d.d_acl))))
    schedule;
  let all = Array.of_list (List.rev !calls) in
  {
    calls = Array.map (fun (_, _, c, _) -> c) all;
    starts = Array.map (fun (s, _, _, _) -> s) all;
    model = Array.map (fun (_, _, _, m) -> m) all;
    dir_of = Array.map (fun (_, d, _, _) -> d) all;
  }

(* {1 Staging} *)

type host = { k : Kernel.t; box : Box.t; sup_uid : int }

let stage (dirs : dir array) ~caching ~bytecode =
  let k = Kernel.create () in
  let steward = ok_or_fail_msg "account" (Account.add (Kernel.accounts k) "steward") in
  Kernel.refresh_passwd k;
  let uid = steward.Account.uid in
  let fs = Kernel.fs k in
  ok_or_fail "mkdir root" (Fs.mkdir_p fs ~uid:0 root);
  ok_or_fail "chown root" (Fs.chown fs ~uid:0 ~owner:uid root);
  let box =
    ok_or_fail "box" (Box.create k ~supervisor_uid:uid ~identity:visitor ~caching ~bytecode ())
  in
  ok_or_fail "root acl"
    (Box.set_acl box ~dir:root
       (Acl.of_entries [ Entry.make ~pattern:"globus:/O=Bench/*" (Rights.of_string_exn "l") ]));
  Array.iter
    (fun d ->
      ignore (ok_or_fail "mkdir" (Fs.mkdir fs ~uid ~mode:0o755 d.d_path));
      Array.iter
        (fun (name, content) ->
          ok_or_fail "stage file"
            (Fs.write_file fs ~uid ~mode:0o644 (d.d_path ^ "/" ^ name) content))
        d.d_files;
      ok_or_fail "acl" (Box.set_acl box ~dir:d.d_path d.d_acl))
    dirs;
  { k; box; sup_uid = uid }

(* {1 Running calls inside the box} *)

let perform fd = function
  | C_stat p -> (match Libc.stat p with Ok st -> O_size st.Fs.st_size | Error e -> O_err e)
  | C_open p ->
    (match Libc.open_file p with
     | Ok f ->
       fd := f;
       O_unit
     | Error e -> O_err e)
  | C_pread len -> (match Libc.pread !fd ~off:0 ~len with Ok s -> O_data s | Error e -> O_err e)
  | C_close -> (match Libc.close !fd with Ok () -> O_unit | Error e -> O_err e)
  | C_readdir d -> (match Libc.readdir d with Ok l -> O_names l | Error e -> O_err e)
  | C_getacl d -> (match Libc.getacl d with Ok s -> O_text s | Error e -> O_err e)

let outcome_equal a b =
  match (a, b) with
  | O_unit, O_unit -> true
  | O_size x, O_size y -> x = y
  | O_data x, O_data y | O_text x, O_text y -> String.equal x y
  | O_names x, O_names y -> List.equal String.equal x y
  | O_err x, O_err y -> x = y
  | _ -> false

let token = function O_err e -> Errno.to_string e | _ -> "ok"

let describe = function
  | O_unit -> "ok"
  | O_size n -> Printf.sprintf "size %d" n
  | O_data s -> Printf.sprintf "%d bytes" (String.length s)
  | O_names l -> Printf.sprintf "%d names" (List.length l)
  | O_text s -> Printf.sprintf "acl %S" s
  | O_err e -> Errno.to_string e

let call_name = function
  | C_stat p -> "stat " ^ p
  | C_open p -> "open " ^ p
  | C_pread n -> Printf.sprintf "pread %d" n
  | C_close -> "close"
  | C_readdir d -> "readdir " ^ d
  | C_getacl d -> "getacl " ^ d

(* Run the whole plan once in the box; returns each call's outcome. *)
let one_pass (h : host) plan =
  let out = Array.make (Array.length plan.calls) O_unit in
  let pid =
    Box.spawn_main h.box
      ~main:(fun _ ->
        let fd = ref (-1) in
        Array.iteri (fun i c -> out.(i) <- perform fd c) plan.calls;
        0)
      ~args:[ "pass" ]
  in
  Kernel.run h.k;
  if Kernel.exit_code h.k pid <> Some 0 then failwith "box_meta: pass did not exit 0";
  out

(* The model and the reference transcript must agree once directory
   listings are compared as sets and ACL text as entry sets. *)
let normalise = function
  | O_names l -> O_names (List.sort String.compare l)
  | O_text s ->
    O_text
      (String.concat "\n"
         (List.sort String.compare
            (List.filter (fun l -> l <> "") (String.split_on_char '\n' s))))
  | o -> o

(* {1 The run} *)

type kstats = { syscalls : int; trapped : int; delegated : int; channel_bytes : int }

let kstats k =
  let s = Kernel.stats k in
  {
    syscalls = s.Kernel.syscalls;
    trapped = s.Kernel.trapped;
    delegated = s.Kernel.delegated;
    channel_bytes = s.Kernel.channel_bytes;
  }

type run = {
  e2e : e2e;
  host : host;
  dirs : dir array;
  plan : plan;
  traced_idx : int list;  (** Plan indices run in traced slices (capped). *)
  stats0 : kstats;
  stats1 : kstats;
  bc0 : int * int * int;  (** kernel.bytecode (hit, stale, fallback) at window start *)
  bc1 : int * int * int;
  evictions : int;  (** Acl memo evictions during the window. *)
}

let bytecode_counters k =
  let m = Kernel.metrics k in
  ( counter m "kernel.bytecode.hit",
    counter m "kernel.bytecode.stale",
    counter m "kernel.bytecode.fallback" )

let trace_cap = 200_000

let run ?(p = default) ?(plant = false) ~seed ~seconds ~traced () =
  let dirs = gen_dirs ~seed p in
  let plan = gen_plan ~seed p dirs in
  let setup () =
    let t0 = now_ns () in
    let h = stage dirs ~caching:true ~bytecode:true in
    (* Warm-up: the first checks after staging pay the policy compile
       and fill the caches; the window measures the steady state. *)
    ignore (one_pass h plan);
    (elapsed_s t0, h)
  in
  let timings, h = repeat_setups p.setups setup in
  let check = Check.create ~floor:p.floor in
  (* The reference transcript: the same plan through an engine with
     every cache and the bytecode tier off. *)
  let reference = one_pass (stage dirs ~caching:false ~bytecode:false) plan in
  Array.iteri
    (fun i m ->
      let r = reference.(i) in
      Check.expect check
        (outcome_equal (normalise m) (normalise r))
        (lazy
          (Printf.sprintf "%s: model %s, uncached engine %s" (call_name plan.calls.(i))
             (describe m) (describe r))))
    plan.model;
  if plant then begin
    (* A deliberately wrong expectation: the first allowed stat is
       expected to be denied.  The check must catch it. *)
    let i = ref 0 in
    while
      !i < Array.length plan.calls
      && not (match (plan.calls.(!i), reference.(!i)) with C_stat _, O_size _ -> true | _ -> false)
    do
      incr i
    done;
    if !i < Array.length reference then reference.(!i) <- O_err Errno.EACCES
  end;
  let n = Array.length plan.calls in
  let names = Array.map call_name plan.calls in
  let traced_idx = ref [] and n_traced = ref 0 in
  let result = ref None in
  let gc0 = ref (Gc.quick_stat ()) in
  let main _ =
    let fd = ref (-1) in
    let stats0 = kstats h.k and bc0 = bytecode_counters h.k in
    let ev0 = Acl.memo_evictions () in
    gc0 := Gc.quick_stat ();
    let w = Window.start ~seconds ~floor:p.floor ~traced () in
    let i = ref 0 in
    while not (plan.starts.(!i mod n) && Window.over w) do
      let idx = !i mod n in
      let tr = Window.tracing w in
      let s0 = Kernel.now h.k in
      let t0 = now_ns () in
      let o = perform fd plan.calls.(idx) in
      let host_ns = elapsed_ns t0 in
      let sim_ns = Int64.to_float (Int64.sub (Kernel.now h.k) s0) in
      Window.note w ~traced:tr ~host_ns ~sim_ns;
      let expected = reference.(idx) in
      if not (outcome_equal o expected) then
        Check.fail check
          (Printf.sprintf "%s: got %s, expected %s" (call_name plan.calls.(idx)) (describe o)
             (describe expected));
      Check.record check ~op:names.(idx) (token o);
      if tr && !n_traced < trace_cap then begin
        traced_idx := idx :: !traced_idx;
        incr n_traced
      end;
      incr i
    done;
    let window_s = elapsed_s w.Window.start in
    result :=
      Some (w, window_s, stats0, kstats h.k, bc0, bytecode_counters h.k,
            Acl.memo_evictions () - ev0);
    0
  in
  let pid = Box.spawn_main h.box ~main ~args:[ "visitor" ] in
  Kernel.run h.k;
  if Kernel.exit_code h.k pid <> Some 0 then Check.fail check "visitor did not exit with status 0";
  match !result with
  | None -> failwith "box_meta: the visitor never finished its window"
  | Some (w, window_s, stats0, stats1, bc0, bc1, evictions) ->
    let e2e = finish_e2e w ~check ~setup_s:timings ~window_s ~gc0:!gc0 in
    {
      e2e;
      host = h;
      dirs;
      plan;
      traced_idx = List.rev !traced_idx;
      stats0;
      stats1;
      bc0;
      bc1;
      evictions;
    }

(* {1 Per-layer probes (traced run)}

   Each probe times public calls of one layer from the benchmark's own
   code, on the inputs this run generated. *)

type triple = { t_path : string; t_right : Right.t; t_in_dir : bool; t_dir : int }

let triples_of (r : run) =
  let idx = if r.traced_idx = [] then List.init (Array.length r.plan.calls) Fun.id else r.traced_idx in
  Array.of_list
    (List.filter_map
       (fun i ->
         let d = r.plan.dir_of.(i) in
         match r.plan.calls.(i) with
         | C_stat p -> Some { t_path = p; t_right = Right.List; t_in_dir = false; t_dir = d }
         | C_open p -> Some { t_path = p; t_right = Right.Read; t_in_dir = false; t_dir = d }
         | C_readdir p | C_getacl p ->
           Some { t_path = p; t_right = Right.List; t_in_dir = true; t_dir = d }
         | C_pread _ | C_close -> None)
       idx)

(* One engine tier replayed over the triples: host ns, simulated ns and
   minor words per check. *)
let replay_tier (r : run) triples ~caching ~bytecode =
  let k = r.host.k in
  let e = Enforce.create ~caching ~bytecode k ~supervisor:(Box.supervisor_view r.host.box) () in
  let pass () =
    Array.iter
      (fun t ->
        ignore
          (if t.t_in_dir then Enforce.check_in_dir e ~identity:visitor ~dir:t.t_path t.t_right
           else Enforce.check_object e ~identity:visitor ~path:t.t_path t.t_right))
      triples
  in
  pass ();
  let n = Array.length triples in
  let s0 = Kernel.now k in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let passes = ref 0 in
  while !passes = 0 || elapsed_s t0 < 0.3 do
    pass ();
    incr passes
  done;
  let checks = float_of_int (!passes * max 1 n) in
  let host_ns = elapsed_ns t0 /. checks in
  let words = (Gc.minor_words () -. w0) /. checks in
  let sim_ns = Int64.to_float (Int64.sub (Kernel.now k) s0) /. checks in
  (host_ns, sim_ns, words)

(* The same op stream, unboxed and untraced, as the supervising user:
   what the calls cost without interposition. *)
let direct_call_ns (r : run) =
  let k = r.host.k in
  let plan = r.plan in
  let n = Array.length plan.calls in
  let host = ref 0.0 and sim = ref 0.0 and calls = ref 0 in
  let main _ =
    let fd = ref (-1) in
    let t_end = Int64.add (now_ns ()) 300_000_000L in
    let i = ref 0 in
    while not (plan.starts.(!i mod n) && Int64.compare (now_ns ()) t_end >= 0) do
      let call = plan.calls.(!i mod n) in
      let s0 = Kernel.now k in
      let t0 = now_ns () in
      (* Denied directories are readable to their owner, so every open
         succeeds here and its pread/close follow only when planned. *)
      ignore (perform fd call);
      host := !host +. elapsed_ns t0;
      sim := !sim +. Int64.to_float (Int64.sub (Kernel.now k) s0);
      incr calls;
      (* An open the box would deny has no planned close: close it. *)
      (match call with
       | C_open _ when plan.starts.((!i + 1) mod n) -> ignore (Libc.close !fd)
       | _ -> ());
      incr i
    done;
    0
  in
  let pid = Kernel.spawn_main k ~uid:r.host.sup_uid ~main ~args:[ "direct" ] () in
  Kernel.run k;
  ignore pid;
  (!host /. float_of_int !calls, !sim /. float_of_int !calls)

let probes (r : run) : layer_metric list * (string * float * float) list =
  let ops = max 1 r.e2e.attempted in
  let per_op a b = float_of_int (b - a) /. float_of_int ops in
  let s0 = r.stats0 and s1 = r.stats1 in
  let boxed_ns = Array.fold_left ( +. ) 0.0 r.e2e.host_sorted /. float_of_int ops in
  let boxed_sim = Array.fold_left ( +. ) 0.0 r.e2e.sim_sorted
                  /. float_of_int (max 1 (Array.length r.e2e.sim_sorted)) in
  let direct_ns, direct_sim = direct_call_ns r in
  let triples = triples_of r in
  let bc_ns, bc_sim, bc_words = replay_tier r triples ~caching:true ~bytecode:true in
  let ca_ns, ca_sim, _ = replay_tier r triples ~caching:true ~bytecode:false in
  let un_ns, un_sim, _ = replay_tier r triples ~caching:false ~bytecode:false in
  let h0, st0, f0 = r.bc0 and h1, st1, f1 = r.bc1 in
  let hits = h1 - h0 and answered = h1 - h0 + (st1 - st0) + (f1 - f0) in
  let acl_ns =
    per_item ~min_s:0.2 ~per_pass:(Array.length triples) (fun () ->
        Array.iter
          (fun t -> ignore (Acl.check r.dirs.(t.t_dir).d_acl visitor t.t_right))
          triples)
  in
  let compile_ns =
    per_item ~min_s:0.2 ~per_pass:1 (fun () ->
        ignore (Policy_compile.compile (Kernel.fs r.host.k) ~uid:r.host.sup_uid))
  in
  let cost = Kernel.cost r.host.k in
  ( [
      ("kernel.direct_ns_per_call", direct_ns, "ns");
      ("kernel.syscalls_per_op", per_op s0.syscalls s1.syscalls, "count");
      ("box.interpose_ns_per_call", boxed_ns -. direct_ns, "ns");
      ("box.trapped_per_op", per_op s0.trapped s1.trapped, "count");
      ("box.delegated_per_op", per_op s0.delegated s1.delegated, "count");
      ("box.channel_bytes_per_op", per_op s0.channel_bytes s1.channel_bytes, "bytes");
      ("enforce.bytecode.ns_per_check", bc_ns, "ns");
      ("enforce.cached.ns_per_check", ca_ns, "ns");
      ("enforce.uncached.ns_per_check", un_ns, "ns");
      ("enforce.bytecode.words_per_check", bc_words, "words");
      ("enforce.bytecode.hit_ratio", ratio hits answered, "ratio");
      ("acl.ns_per_check", acl_ns, "ns");
      ("acl.memo_evictions", float_of_int r.evictions, "count");
    ],
    [
      ("box: direct syscall", direct_ns, direct_sim);
      ("box: trapped syscall", boxed_ns, boxed_sim);
      ("enforce: bytecode check", bc_ns, bc_sim);
      ("enforce: cached check", ca_ns, ca_sim);
      ("enforce: uncached check", un_ns, un_sim);
      ("enforce: policy compile (box_meta fs)", compile_ns,
       Int64.to_float cost.Idbox_kernel.Cost.bytecode_compile_ns);
    ] )
