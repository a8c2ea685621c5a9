(* geo_churn: one client writes through Geo (put, unlink, setacl, mkdir,
   rmdir) against a 3-node primary region linked to a 2-node secondary;
   a secondary-region reader takes about a fifth of the operations
   under a staleness bound.  The live namespace is held at a fixed
   size, and once mid-run one primary member crashes and restarts.
   Every mutation runs Enforce and the Server write path, Wal,
   Replica forwarding, Geo framing/shipping/apply and Repair. *)

module World = Idbox_cluster.World
module Geo = Idbox_cluster.Geo
module Router = Idbox_cluster.Router
module Server = Idbox_chirp.Server
module Protocol = Idbox_chirp.Protocol
module Wal = Idbox_chirp.Wal
module Wire = Idbox_chirp.Wire
module Network = Idbox_net.Network
module Clock = Idbox_kernel.Clock
module Kernel = Idbox_kernel.Kernel
module Cost = Idbox_kernel.Cost
module Policy_compile = Idbox.Policy_compile
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Rights = Idbox_acl.Rights
module Errno = Idbox_vfs.Errno
open Common

type params = {
  dirs : int;  (** Live top-level directories. *)
  slots : int;  (** File slots per directory; half are live at a time. *)
  floor : int;  (** Minimum timed operations per run. *)
  setups : int;
  bound_ns : int64;  (** The secondary reader's staleness bound. *)
}

let default = { dirs = 8; slots = 8; floor = 1_000; setups = 5; bound_ns = 1_000_000_000L }
let east_hosts = [ "ea.grid.edu"; "eb.grid.edu"; "ec.grid.edu" ]
let west_hosts = [ "wa.grid.edu"; "wb.grid.edu" ]
let principal = World.principal_of "Bench"

(* {1 The client-side model}

   Each file slot keeps its recent versions with the simulated time the
   client saw each one acknowledged ([None] = absent).  A bounded-stale
   read is correct when it returns the version current when the reader's
   region last proved itself caught up, or any later one. *)

type model = {
  versions : (string, (int64 * string option) list) Hashtbl.t;  (** newest first *)
  slot_paths : string array;
  mutable live : int;  (** Live files. *)
  target : int;  (** The file count the churn holds. *)
  acls : (string, Acl.t) Hashtbl.t;
  mutable tmp : string option;  (** The one transient directory, if any. *)
  mutable tmp_seq : int;
}

let dir_path i = Printf.sprintf "/g%02d" i
let slot_path i j = Printf.sprintf "/g%02d/s%02d" i j

let latest m path =
  match Hashtbl.find_opt m.versions path with Some ((_, v) :: _) -> v | _ -> None

let set_version m path ~at v =
  let old = Option.value (Hashtbl.find_opt m.versions path) ~default:[] in
  (* Keep enough history for any read within the bound. *)
  let old = List.filteri (fun i _ -> i < 63) old in
  (match (latest m path, v) with
   | None, Some _ -> m.live <- m.live + 1
   | Some _, None -> m.live <- m.live - 1
   | _ -> ());
  Hashtbl.replace m.versions path ((at, v) :: old)

(* Versions a read may return when the region was provably caught up at
   [fresh_at]: the one current then, and every later one. *)
let admissible m path ~fresh_at =
  let rec go acc = function
    | [] -> None :: acc
    | (at, v) :: rest -> if Int64.compare at fresh_at <= 0 then v :: acc else go (v :: acc) rest
  in
  go [] (Option.value (Hashtbl.find_opt m.versions path) ~default:[])

let dir_names m i =
  let files =
    List.filter_map
      (fun j -> Option.map (fun _ -> Printf.sprintf "s%02d" j) (latest m (slot_path i j)))
      (List.init (Array.length m.slot_paths / Hashtbl.length m.acls) Fun.id)
  in
  let tmp =
    match m.tmp with
    | Some t when String.starts_with ~prefix:(dir_path i ^ "/") t ->
      [ Filename.basename t ]
    | _ -> []
  in
  List.sort String.compare (files @ tmp)

(* {1 Operations} *)

type op =
  | Put of string * string
  | Unlink of string
  | Setacl of string * string
  | Mkdir of string
  | Rmdir of string
  | Read_primary of string
  | Read_secondary of string

let is_mutation = function Read_primary _ | Read_secondary _ -> false | _ -> true

let to_protocol = function
  | Put (path, data) -> Protocol.Put { path; data }
  | Unlink p -> Protocol.Unlink p
  | Setacl (path, entry) -> Protocol.Setacl { path; entry }
  | Mkdir p -> Protocol.Mkdir p
  | Rmdir p -> Protocol.Rmdir p
  | Read_primary p | Read_secondary p -> Protocol.Get p

let op_name = function
  | Put (p, _) -> "put " ^ p
  | Unlink p -> "unlink " ^ p
  | Setacl (p, e) -> Printf.sprintf "setacl %s %s" p e
  | Mkdir p -> "mkdir " ^ p
  | Rmdir p -> "rmdir " ^ p
  | Read_primary p -> "primary get " ^ p
  | Read_secondary p -> "secondary get " ^ p

let user_bytes = function
  | Put (p, d) -> String.length p + String.length d
  | Setacl (p, e) -> String.length p + String.length e
  | Unlink p | Mkdir p | Rmdir p | Read_primary p | Read_secondary p -> String.length p

(* Op kinds come from a deck of 100 (30 put, 15 unlink, 10 setacl,
   10 mkdir/rmdir, 15 primary read, 20 secondary read), reshuffled when
   spent, so every seed runs the same proportions. *)
let deck st =
  let cards = Array.init 100 Fun.id and pos = ref 100 in
  fun () ->
    if !pos = 100 then begin
      Array.blit (shuffle st cards) 0 cards 0 100;
      pos := 0
    end;
    incr pos;
    cards.(!pos - 1)

(* The next operation, drawn from the seeded stream and the model's
   state, so the live namespace stays at [target] files, [dirs]
   directories plus at most one transient one. *)
let next_op st draw p m =
  let dir () = Random.State.int st p.dirs in
  let any_slot () = m.slot_paths.(Random.State.int st (Array.length m.slot_paths)) in
  let rec slot_where live =
    let s = any_slot () in
    if Option.is_some (latest m s) = live then s else slot_where live
  in
  let data () = payload st (128 + Random.State.int st 896) in
  let create () = Put (slot_where false, data ()) in
  match draw () with
  | r when r < 30 ->
    if m.live < m.target then create () else Put (slot_where true, data ())
  | r when r < 45 -> if m.live >= m.target then Unlink (slot_where true) else create ()
  | r when r < 55 ->
    let rights = [| "rl"; "rwl"; "l" |].(Random.State.int st 3) in
    Setacl
      (dir_path (dir ()), Printf.sprintf "globus:/O=Grid/CN=peer%d %s" (Random.State.int st 4) rights)
  | r when r < 65 -> (
    match m.tmp with
    | Some t -> Rmdir t
    | None ->
      m.tmp_seq <- m.tmp_seq + 1;
      Mkdir (Printf.sprintf "%s/t%d" (dir_path (dir ())) m.tmp_seq))
  | r when r < 80 -> Read_primary (any_slot ())
  | _ -> Read_secondary (any_slot ())

(* {1 Staging} *)

type host = {
  clock : Clock.t;
  net : Network.t;
  east : World.t;
  west : World.t;
  geo : Geo.t;
  writer : Geo.reader;  (** Primary-region client. *)
  reader : Geo.reader;  (** Secondary-region client. *)
  model : model;
  st : Random.State.t;  (** The op stream. *)
  draw : unit -> int;  (** The op-kind deck. *)
}

let world net ca region hosts =
  let w =
    World.create ~net ~ca
      ~catalog_addr:("catalog." ^ region ^ ".grid.edu:9097")
      ~staleness_ns:8_000_000_000L ~heartbeat_interval_ns:2_000_000_000L ()
  in
  List.iter (fun h -> ok_or_fail_msg "add_node" (World.add_node w ~host:h)) hosts;
  World.settle w;
  w

let tick h =
  World.tick h.east;
  World.tick h.west;
  Geo.tick h.geo

(* Ship until the secondary has applied the primary's whole log: one
   [ship_now] sends one bounded segment. *)
let drain h =
  let east = Geo.region h.geo "east" and west = Geo.region h.geo "west" in
  let rounds = ref 0 in
  while Geo.applied_lsn west < Geo.tip east && !rounds < 10_000 do
    Geo.ship_now h.geo;
    tick h;
    incr rounds
  done;
  Geo.applied_lsn west = Geo.tip east

let stage ~seed p =
  let clock = Clock.create () in
  let net = Network.create ~clock () in
  let ca = Idbox_auth.Ca.create ~name:"Grid CA" in
  let east = world net ca "east" east_hosts in
  let west = world net ca "west" west_hosts in
  (* Segments of up to 256 records: the churn sequences ~170 mutations
     per 200 ms shipping interval of simulated time, so the default 64
     would let the secondary fall ever further behind and the window
     would drift from local to proxied reads. *)
  let geo = Geo.link ~batch_max:256 ~primary:"east" net [ ("east", east); ("west", west) ] in
  Geo.ship_now geo;
  let writer =
    ok_or_fail_msg "writer" (Geo.connect geo ~region:"east" ~credentials:[ World.issue east "Bench" ] ())
  in
  let reader =
    ok_or_fail_msg "reader"
      (Geo.connect geo ~region:"west" ~credentials:[ World.issue west "Bench" ]
         ~policy:Geo.Proxy ~bound_ns:p.bound_ns ())
  in
  let model =
    {
      versions = Hashtbl.create 128;
      slot_paths = Array.init (p.dirs * p.slots) (fun k -> slot_path (k / p.slots) (k mod p.slots));
      live = 0;
      target = p.dirs * p.slots / 2;
      acls = Hashtbl.create 16;
      tmp = None;
      tmp_seq = 0;
    }
  in
  let st = rng ~seed ~salt:21 in
  let h = { clock; net; east; west; geo; writer; reader; model; st; draw = deck st } in
  for i = 0 to p.dirs - 1 do
    let d = dir_path i in
    ok_or_fail "mkdir" (Geo.mkdir writer d);
    Hashtbl.replace model.acls d
      (Acl.of_entries [ Entry.make ~pattern:principal (Rights.of_string_exn "rwlaxd") ])
  done;
  for k = 0 to model.target - 1 do
    (* Every other slot starts live. *)
    let path = model.slot_paths.(2 * k) in
    let data = payload st (128 + Random.State.int st 896) in
    ok_or_fail "put" (Geo.put writer ~path ~data);
    set_version model path ~at:(Clock.now clock) (Some data)
  done;
  if not (drain h) then failwith "geo_churn: staging never reached the secondary";
  h

(* {1 One operation, checked} *)

type stats = {
  mutable local_reads : int;
  mutable secondary_reads : int;
  mutable mutations : int;
  mutable wal_growth : int;
  mutable wal_user_bytes : int;
  mutable read_host : float;
  mutable read_sim : float;
  mutable reads : int;
  mutable mut_host : float;
  mutable mut_sim : float;
}

let local_counter h = counter (Network.metrics h.net) "cluster.geo.read.local"

let expect_value check op got want =
  let same =
    match (got, want) with
    | Ok s, Some v -> String.equal s v
    | Error Errno.ENOENT, None -> true
    | _ -> false
  in
  Check.expect check same
    (lazy
      (Printf.sprintf "%s: got %s, expected %s" (op_name op) (errno_token got)
         (match want with Some v -> Printf.sprintf "%d bytes" (String.length v) | None -> "ENOENT")))

(* Brackets exactly the call into the system. *)
type timer = { timed : 'a. (unit -> 'a) -> 'a }

(* Run [op]; returns the result token for the transcript. *)
let perform h p check stats { timed } op =
  let m = h.model in
  let unit_op f =
    let r = timed f in
    Check.expect check (Result.is_ok r)
      (lazy (Printf.sprintf "%s: %s" (op_name op) (errno_token r)));
    r
  in
  let acked r f = match r with Ok () -> f () | Error _ -> () in
  match op with
  | Put (path, data) ->
    let r = unit_op (fun () -> Geo.put h.writer ~path ~data) in
    acked r (fun () -> set_version m path ~at:(Clock.now h.clock) (Some data));
    errno_token r
  | Unlink path ->
    let r = unit_op (fun () -> Geo.unlink h.writer path) in
    acked r (fun () -> set_version m path ~at:(Clock.now h.clock) None);
    errno_token r
  | Setacl (dir, entry) ->
    let r = unit_op (fun () -> Geo.setacl h.writer ~path:dir ~entry) in
    acked r (fun () ->
        Hashtbl.replace m.acls dir
          (Acl.set_entry (Hashtbl.find m.acls dir) (ok_or_fail_msg "entry" (Entry.of_line entry))));
    errno_token r
  | Mkdir dir ->
    let r = unit_op (fun () -> Geo.mkdir h.writer dir) in
    acked r (fun () -> m.tmp <- Some dir);
    errno_token r
  | Rmdir dir ->
    let r = unit_op (fun () -> Geo.rmdir h.writer dir) in
    acked r (fun () -> m.tmp <- None);
    errno_token r
  | Read_primary path ->
    let r = timed (fun () -> Geo.get h.writer path) in
    expect_value check op r (latest m path);
    errno_token r
  | Read_secondary path ->
    let west = Geo.region h.geo "west" in
    let staleness = Geo.staleness h.geo west in
    let before = local_counter h in
    let now0 = Clock.now h.clock in
    let r = timed (fun () -> Geo.get h.reader path) in
    stats.secondary_reads <- stats.secondary_reads + 1;
    if local_counter h > before then begin
      stats.local_reads <- stats.local_reads + 1;
      Check.expect check
        (Int64.compare staleness p.bound_ns <= 0)
        (lazy (Printf.sprintf "%s: local read at staleness %Ld ns" (op_name op) staleness));
      let ok_values = admissible m path ~fresh_at:(Int64.sub now0 staleness) in
      let got = match r with Ok s -> Some (Some s) | Error Errno.ENOENT -> Some None | Error _ -> None in
      Check.expect check
        (match got with
         | Some v -> List.exists (Option.equal String.equal v) ok_values
         | None -> false)
        (lazy (Printf.sprintf "%s: %s is not a version within the bound" (op_name op) (errno_token r)))
    end
    else expect_value check op r (latest m path);
    errno_token r

(* Every acked write readable through the primary region. *)
let verify_primary h check =
  Array.iter
    (fun path -> expect_value check (Read_primary path) (Geo.get h.writer path) (latest h.model path))
    h.model.slot_paths

(* Key by key: primary, secondary and model agree, files, listings and
   ACLs alike. *)
let verify_converged h p check =
  let local = Geo.local_router h.reader in
  Array.iter
    (fun path ->
      let want = latest h.model path in
      expect_value check (Read_primary path) (Geo.get h.writer path) want;
      expect_value check (Read_secondary path) (Router.get local path) want)
    h.model.slot_paths;
  let lines text =
    List.sort String.compare (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))
  in
  for i = 0 to p.dirs - 1 do
    let d = dir_path i in
    let names = dir_names h.model i in
    let want_acl = lines (Acl.to_string (Hashtbl.find h.model.acls d)) in
    List.iter
      (fun (side, readdir, getacl) ->
        Check.expect check
          (match readdir d with
           | Ok l -> List.equal String.equal (List.sort String.compare l) names
           | Error _ -> false)
          (lazy (Printf.sprintf "%s readdir %s differs from the model" side d));
        Check.expect check
          (match getacl d with Ok t -> List.equal String.equal (lines t) want_acl | Error _ -> false)
          (lazy (Printf.sprintf "%s getacl %s differs from the model" side d)))
      [
        ("primary", Geo.readdir h.writer, Geo.getacl h.writer);
        ("secondary", Router.readdir local, Router.getacl local);
      ]
  done

(* {1 The run} *)

let servers h =
  List.map (World.server h.east) (World.members h.east)
  @ List.map (World.server h.west) (World.members h.west)

let wal_bytes h = List.fold_left (fun acc s -> acc + Server.wal_bytes s) 0 (servers h)

let watched =
  [
    "cluster.replicate";
    "cluster.repair.push";
    "cluster.geo.apply";
    "cluster.geo.segment.apply";
    "net.messages";
    "net.bytes";
  ]

let snapshot h =
  let m = Network.metrics h.net in
  let recompiles w = counter (Kernel.metrics (World.kernel w)) "kernel.bytecode.recompile" in
  ("recompile.east", recompiles h.east)
  :: ("recompile.west", recompiles h.west)
  :: List.map
       (fun name ->
         match name with
         | "net.messages" -> (name, Network.total_messages h.net)
         | "net.bytes" -> (name, Network.total_bytes h.net)
         | _ -> (name, counter m name))
       watched

type run = {
  e2e : e2e;
  host : host;
  stats : stats;
  traced_mutations : op list;  (** Mutations of the traced slices (capped). *)
  counters0 : (string * int) list;
  counters1 : (string * int) list;
  paused : (string * int) list;  (** Counter movement during the mid-run pause. *)
  replay_ms : float;  (** Host time of the mid-run restart. *)
}

(* Counter movement over the window, less what the mid-run pause did. *)
let delta (r : run) name =
  List.assoc name r.counters1 - List.assoc name r.counters0 - List.assoc name r.paused
let trace_cap = 20_000

let run ?(p = default) ?(plant = false) ~seed ~seconds ~traced () =
  let setup () =
    let t0 = now_ns () in
    let h = stage ~seed p in
    (* Warm-up: sessions, route caches, and one compile per engine. *)
    Array.iter (fun path -> ignore (Geo.get h.writer path); ignore (Geo.get h.reader path))
      h.model.slot_paths;
    (elapsed_s t0, h)
  in
  let timings, h = repeat_setups p.setups setup in
  if plant then begin
    (* A deliberately wrong expectation: the model believes the first
       directory grants a principal nobody granted.  The check must
       catch it. *)
    let d = dir_path 0 in
    Hashtbl.replace h.model.acls d
      (Acl.set_entry (Hashtbl.find h.model.acls d)
         (Entry.make ~pattern:"globus:/O=Planted/CN=nobody" (Rights.of_string_exn "rl")))
  end;
  let check = Check.create ~floor:p.floor in
  let stats =
    {
      local_reads = 0; secondary_reads = 0; mutations = 0; wal_growth = 0; wal_user_bytes = 0;
      read_host = 0.0; read_sim = 0.0; reads = 0; mut_host = 0.0; mut_sim = 0.0;
    }
  in
  let traced_mutations = ref [] and n_traced = ref 0 in
  let replay_ms = ref 0.0 in
  let counters0 = snapshot h in
  let gc0 = Gc.quick_stat () in
  let w = Window.start ~slice_ns:1_000_000_000L ~seconds ~floor:p.floor ~traced () in
  let paused = ref 0.0 in
  let paused_counters = ref (List.map (fun (n, _) -> (n, 0)) counters0) in
  while not (Window.over w) do
    let op = next_op h.st h.draw p h.model in
    let tr = Window.tracing w in
    let host_ns = ref 0.0 and sim_ns = ref 0.0 in
    let timer =
      {
        timed =
          (fun f ->
            let s0 = Clock.now h.clock in
            let t0 = now_ns () in
            let r = f () in
            host_ns := elapsed_ns t0;
            sim_ns := Int64.to_float (Int64.sub (Clock.now h.clock) s0);
            r);
      }
    in
    let wal0 = if tr && is_mutation op then wal_bytes h else 0 in
    let token = perform h p check stats timer op in
    Window.note w ~traced:tr ~host_ns:!host_ns ~sim_ns:!sim_ns;
    Check.record check ~op:(op_name op) token;
    if is_mutation op then begin
      stats.mutations <- stats.mutations + 1;
      stats.mut_host <- stats.mut_host +. !host_ns;
      stats.mut_sim <- stats.mut_sim +. !sim_ns;
      if tr && !n_traced < trace_cap then begin
        let wal1 = wal_bytes h in
        (* A checkpoint truncates the log: count what was written since. *)
        stats.wal_growth <- stats.wal_growth + (if wal1 >= wal0 then wal1 - wal0 else wal1);
        stats.wal_user_bytes <- stats.wal_user_bytes + user_bytes op;
        traced_mutations := op :: !traced_mutations;
        incr n_traced
      end
    end
    else begin
      stats.reads <- stats.reads + 1;
      stats.read_host <- stats.read_host +. !host_ns;
      stats.read_sim <- stats.read_sim +. !sim_ns
    end;
    tick h;
    if w.Window.ops = p.floor / 2 then begin
      (* Once mid-run: a primary-region member crashes and restarts
         from its WAL; every acked write must still be readable.  The
         pause is kept out of the window. *)
      let before = snapshot h in
      paused :=
        !paused
        +. Window.pause w (fun () ->
               let victim = List.nth (World.members h.east) ((seed land 1) + 1) in
               World.crash h.east victim;
               let dt, () = time_ns (fun () -> World.restart h.east victim) in
               replay_ms := dt /. 1e6;
               verify_primary h check);
      paused_counters :=
        List.map2 (fun (n, a) (_, b) -> (n, b - a)) before (snapshot h)
    end
  done;
  let window_s = elapsed_s w.Window.start -. !paused in
  let counters1 = snapshot h in
  let e2e = finish_e2e w ~check ~setup_s:timings ~window_s ~gc0 in
  (* After the window: drain, then everything must agree. *)
  let check_end = Check.create ~floor:0 in
  if not (drain h) then Check.fail check_end "the secondary never caught up with the primary tip";
  verify_converged h p check_end;
  let e2e =
    { e2e with failed = e2e.failed + check_end.Check.failed; notes = e2e.notes @ Check.notes check_end }
  in
  {
    e2e;
    host = h;
    stats;
    traced_mutations = List.rev !traced_mutations;
    counters0;
    counters1;
    paused = !paused_counters;
    replay_ms = !replay_ms;
  }

(* {1 Per-layer probes (traced run)} *)

(* The geo log record a mutation becomes on the primary. *)
let record_of op =
  Wire.encode [ "m"; principal; Protocol.operation_to_wire (to_protocol op) ]

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take n [] l in
    c :: chunks n rest

let probes (r : run) : layer_metric list * (string * float * float) list =
  let h = r.host in
  let mutations = max 1 r.stats.mutations in
  let window_ns = r.e2e.window_s *. 1e9 in
  (* Each server's engine compiles the shared host filesystem with its
     own owner's uid; time one compile per member, per region. *)
  let region_compile_ns w =
    let fs = Kernel.fs (World.kernel w) in
    let per =
      List.map
        (fun name ->
          let uid = Server.owner_uid (World.server w name) in
          per_item ~min_s:0.05 ~per_pass:1 (fun () -> ignore (Policy_compile.compile fs ~uid)))
        (World.members w)
    in
    List.fold_left ( +. ) 0.0 per /. float_of_int (List.length per)
  in
  let east_ns = region_compile_ns h.east and west_ns = region_compile_ns h.west in
  let compile_ns = (east_ns +. west_ns) /. 2.0 in
  let compile_share =
    (float_of_int (delta r "recompile.east") *. east_ns
    +. float_of_int (delta r "recompile.west") *. west_ns)
    /. window_ns
  in
  let records = List.map record_of r.traced_mutations in
  let records = if records = [] then [ record_of (Put ("/g00/s00", "x")) ] else records in
  let nrec = List.length records in
  (* A standalone log fed the run's records, appended and synced one
     by one and checkpointed every 128 records, as a server does. *)
  let wal_append_ns, wal_sync_ns =
    let wal = Wal.create () in
    let app = ref 0.0 and sync = ref 0.0 and n = ref 0 in
    let t_end = Int64.add (now_ns ()) 200_000_000L in
    while !n = 0 || Int64.compare (now_ns ()) t_end < 0 do
      List.iter
        (fun record ->
          let a, () = time_ns (fun () -> Wal.append wal record) in
          let s, () = time_ns (fun () -> Wal.sync wal) in
          app := !app +. a;
          sync := !sync +. s;
          incr n;
          if Wal.records wal >= 128 then Wal.checkpoint wal "")
        records
    done;
    (!app /. float_of_int !n, !sync /. float_of_int !n)
  in
  let seg_apply = delta r "cluster.geo.segment.apply" in
  let per_seg =
    if seg_apply = 0 then 1 else max 1 (delta r "cluster.geo.apply" / seg_apply)
  in
  let segments = List.map Wal.frame_segment (chunks per_seg records) in
  let frame_ns =
    per_item ~min_s:0.2 ~per_pass:nrec (fun () ->
        List.iter (fun c -> ignore (Wal.frame_segment c)) (chunks per_seg records))
  in
  let parse_ns =
    per_item ~min_s:0.2 ~per_pass:nrec (fun () ->
        List.iter (fun s -> ignore (Wal.parse_segment s)) segments)
  in
  (* Local vs proxied secondary reads of the same keys: a second reader
     with a zero bound always proxies to the primary region. *)
  ignore (drain h);
  let proxy =
    ok_or_fail_msg "proxy reader"
      (Geo.connect h.geo ~region:"west" ~credentials:[ World.issue h.west "Bench" ]
         ~policy:Geo.Proxy ~bound_ns:0L ())
  in
  let keys = h.model.slot_paths in
  let read_cost rd =
    Array.iter (fun k -> ignore (Geo.get rd k)) keys;
    let s0 = Clock.now h.clock in
    let t0 = now_ns () in
    Array.iter (fun k -> ignore (Geo.get rd k)) keys;
    let n = float_of_int (Array.length keys) in
    (elapsed_ns t0 /. n, Int64.to_float (Int64.sub (Clock.now h.clock) s0) /. n)
  in
  let local_host, local_sim = read_cost h.reader in
  let proxy_host, proxy_sim = read_cost proxy in

  let per_mut name = float_of_int (delta r name) /. float_of_int mutations in
  let recompiles = delta r "recompile.east" + delta r "recompile.west" in
  let attempted = float_of_int (max 1 r.e2e.attempted) in
  let s = r.stats in
  let mean x n = if n = 0 then 0.0 else x /. float_of_int n in
  let cost = Cost.default in
  ( [
      ("policy_compile.ns_per_compile", compile_ns, "ns");
      ("policy_compile.recompiles_per_mutation", ratio recompiles mutations, "count");
      ("policy_compile.share_of_window", compile_share, "ratio");
      ("wal.append_ns", wal_append_ns, "ns");
      ("wal.sync_ns", wal_sync_ns, "ns");
      ("wal.bytes_per_user_byte", ratio s.wal_growth s.wal_user_bytes, "ratio");
      ("wal.replay_ms", r.replay_ms, "ms");
      ("net.messages_per_op", float_of_int (delta r "net.messages") /. attempted, "count");
      ("net.bytes_per_op", float_of_int (delta r "net.bytes") /. attempted, "bytes");
      ("replica.forwards_per_mutation", per_mut "cluster.replicate", "count");
      ("repair.pushes", float_of_int (delta r "cluster.repair.push"), "count");
      ("geo.frame_ns_per_record", frame_ns, "ns");
      ("geo.parse_ns_per_record", parse_ns, "ns");
      ("geo.records_per_segment", ratio (delta r "cluster.geo.apply") seg_apply, "count");
      ("geo.read_local_ratio", ratio s.local_reads s.secondary_reads, "ratio");
    ],
    [
      ("geo: read op (geo_churn)", mean s.read_host s.reads, mean s.read_sim s.reads);
      ("geo: mutation op (geo_churn)", mean s.mut_host s.mutations, mean s.mut_sim s.mutations);
      ("geo: local secondary read", local_host, local_sim);
      ("geo: proxied secondary read", proxy_host, proxy_sim);
      ("policy: compile (geo fs)", compile_ns, Int64.to_float cost.Cost.bytecode_compile_ns);
    ] )
