(* world_read: one Router client on a calm 3-node World (replicas 2)
   runs a read-mostly Chirp mix over pre-populated files with skewed
   popularity; the few writes overwrite existing files, so the
   namespace never changes.  Per-message cost dominates: the Router and
   Ring route cache, Client, Protocol/Wire and checksums, Network and
   the Server read path. *)

module World = Idbox_cluster.World
module Router = Idbox_cluster.Router
module Ring = Idbox_cluster.Ring
module Replica = Idbox_cluster.Replica
module Client = Idbox_chirp.Client
module Server = Idbox_chirp.Server
module Protocol = Idbox_chirp.Protocol
module Network = Idbox_net.Network
module Clock = Idbox_kernel.Clock
module Kernel = Idbox_kernel.Kernel
module Acl = Idbox_acl.Acl
module Entry = Idbox_acl.Entry
module Errno = Idbox_vfs.Errno
open Common

type params = {
  dirs : int;  (** Top-level directories (each its own shard key). *)
  files_per_dir : int;
  items : int;  (** Length of the generated mix before it repeats. *)
  floor : int;  (** Minimum timed operations per run. *)
  setups : int;
}

let default = { dirs = 32; files_per_dir = 32; items = 8192; floor = 40_000; setups = 3 }
let members = [ "alpha.grid.edu"; "beta.grid.edu"; "gamma.grid.edu" ]
let principal = World.principal_of "Bench"

(* {1 The client-side model} *)

type model = {
  content : (string, string) Hashtbl.t;  (** file path -> last acked data *)
  names : (string, string list) Hashtbl.t;  (** dir -> sorted file names *)
  acls : (string, Acl.t) Hashtbl.t;  (** dir -> expected ACL *)
}

let dir_path i = Printf.sprintf "/p%02d" i
let file_path i j = Printf.sprintf "/p%02d/f%03d" i j

type op =
  | Get of string
  | Stat of string
  | Readdir of string
  | Getacl of string
  | Checksum of string
  | Put of string * string

let is_read = function Put _ -> false | _ -> true

let to_protocol = function
  | Get p -> Protocol.Get p
  | Stat p -> Protocol.Stat p
  | Readdir p -> Protocol.Readdir p
  | Getacl p -> Protocol.Getacl p
  | Checksum p -> Protocol.Checksum p
  | Put (path, data) -> Protocol.Put { path; data }

let op_name = function
  | Get p -> "get " ^ p
  | Stat p -> "stat " ^ p
  | Readdir p -> "readdir " ^ p
  | Getacl p -> "getacl " ^ p
  | Checksum p -> "checksum " ^ p
  | Put (p, _) -> "put " ^ p

(* Exact proportions whatever the seed: 50% get, 20% stat, 12% readdir,
   8% getacl, 5% checksum, 5% overwrite-put; files are picked with
   Zipf(0.9) popularity over a seeded ranking. *)
let gen_ops ~seed p =
  let st = rng ~seed ~salt:11 in
  let nfiles = p.dirs * p.files_per_dir in
  let popular = shuffle st (Array.init nfiles Fun.id) in
  let pick = zipf ~s:0.9 nfiles in
  let kinds = shuffle st (Array.init p.items (fun i -> i * 100 / p.items)) in
  Array.map
    (fun kind ->
      let f = popular.(pick st) in
      let i = f / p.files_per_dir and j = f mod p.files_per_dir in
      let path = file_path i j in
      match kind with
      | k when k < 50 -> Get path
      | k when k < 70 -> Stat path
      | k when k < 82 -> Readdir (dir_path i)
      | k when k < 90 -> Getacl (dir_path i)
      | k when k < 95 -> Checksum path
      | _ -> Put (path, payload st (256 + Random.State.int st 1792)))
    kinds

(* ACL text compared as a set of entry lines. *)
let acl_lines text =
  List.sort String.compare (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))

(* {1 Staging} *)

type host = { w : World.t; r : Router.t; model : model }

let stage ~seed p =
  let st = rng ~seed ~salt:12 in
  let w = World.create () in
  List.iter (fun h -> ok_or_fail_msg "add_node" (World.add_node w ~host:h)) members;
  World.settle w;
  let r = ok_or_fail_msg "connect" (World.connect w ~credentials:[ World.issue w "Bench" ]) in
  let model =
    { content = Hashtbl.create 1024; names = Hashtbl.create 64; acls = Hashtbl.create 64 }
  in
  (* Pre-population is installed on each shard's owners as one
     snapshot, the way rebalance migration ships a subtree: creating
     every file through [Router.put] would pay one whole-filesystem
     policy compile per file per engine. *)
  let ring = Ring.create ~vnodes:64 (World.members w) in
  for i = 0 to p.dirs - 1 do
    let d = dir_path i in
    let acl =
      List.fold_left
        (fun acl k ->
          let line =
            Printf.sprintf "globus:/O=Grid/CN=peer%d %s" (k + (10 * i))
              (if k mod 2 = 0 then "rl" else "rwl")
          in
          Acl.set_entry acl (ok_or_fail_msg "entry" (Entry.of_line line)))
        (Acl.of_entries [ Entry.make ~pattern:principal (Idbox_acl.Rights.of_string_exn "rwlaxd") ])
        (List.init (1 + Random.State.int st 4) Fun.id)
    in
    Hashtbl.replace model.acls d acl;
    Hashtbl.replace model.names d (List.init p.files_per_dir (fun j -> Printf.sprintf "f%03d" j));
    let files =
      List.init p.files_per_dir (fun j ->
          let path = file_path i j in
          let data = payload st (256 + Random.State.int st 1792) in
          Hashtbl.replace model.content path data;
          Server.Snap_file { path; data })
    in
    let entries = Server.Snap_dir { path = d; acl = Acl.to_string acl } :: files in
    List.iter
      (fun owner -> ok_or_fail "install" (Server.install_snapshot (World.server w owner) entries))
      (Ring.successors ring (Replica.shard_key d) (World.replicas w))
  done;
  { w; r; model }

(* {1 One operation, checked} *)

let perform r = function
  | Get p -> Result.map (fun s -> Protocol.R_data s) (Router.get r p)
  | Stat p -> Result.map (fun s -> Protocol.R_stat s) (Router.stat r p)
  | Readdir p -> Result.map (fun l -> Protocol.R_names l) (Router.readdir r p)
  | Getacl p -> Result.map (fun s -> Protocol.R_str s) (Router.getacl r p)
  | Checksum p -> Result.map (fun s -> Protocol.R_str s) (Router.checksum r p)
  | Put (path, data) -> Result.map (fun () -> Protocol.R_ok) (Router.put r ~path ~data)

let judge model op res =
  match (op, res) with
  | Get p, Ok (Protocol.R_data s) -> String.equal s (Hashtbl.find model.content p)
  | Stat p, Ok (Protocol.R_stat s) ->
    s.Protocol.ws_kind = "file" && s.Protocol.ws_size = String.length (Hashtbl.find model.content p)
  | Readdir d, Ok (Protocol.R_names l) ->
    List.equal String.equal (List.sort String.compare l) (Hashtbl.find model.names d)
  | Getacl d, Ok (Protocol.R_str text) ->
    List.equal String.equal (acl_lines text) (acl_lines (Acl.to_string (Hashtbl.find model.acls d)))
  | Checksum p, Ok (Protocol.R_str h) ->
    String.equal h (Digest.to_hex (Digest.string (Hashtbl.find model.content p)))
  | Put (p, data), Ok Protocol.R_ok ->
    Hashtbl.replace model.content p data;
    true
  | _ -> false

(* {1 The run} *)

type kind_cost = { mutable k_host : float; mutable k_sim : float; mutable k_n : int }

type run = {
  e2e : e2e;
  host : host;
  ops : op array;
  traced : (op * Protocol.response) list;  (** Inputs of the traced slices (capped). *)
  counters0 : (string * int) list;
  counters1 : (string * int) list;
  reads : kind_cost;
  writes : kind_cost;
}

let watched =
  [
    "chirp.lease.hit";
    "chirp.lease.miss";
    "chirp.retry";
    "cluster.route.cache.hit";
    "cluster.route.cache.miss";
    "net.messages";
    "net.bytes";
  ]

let snapshot (h : host) =
  let net = World.net h.w in
  let m = Network.metrics net in
  List.map
    (fun name ->
      match name with
      | "net.messages" -> (name, Network.total_messages net)
      | "net.bytes" -> (name, Network.total_bytes net)
      | _ -> (name, counter m name))
    watched

let delta (r : run) name = List.assoc name r.counters1 - List.assoc name r.counters0

let trace_cap = 50_000

let run ?(p = default) ?(plant = false) ~seed ~seconds ~traced () =
  let ops = gen_ops ~seed p in
  let setup () =
    let t0 = now_ns () in
    let h = stage ~seed p in
    (* Warm-up: sessions, route caches and attribute leases fill, and
       each server's policy program is compiled once. *)
    Array.iter (fun op -> if is_read op then ignore (perform h.r op)) ops;
    (elapsed_s t0, h)
  in
  let timings, h = repeat_setups p.setups setup in
  if plant then begin
    (* A deliberately wrong expectation: the model lists a file the
       first listed directory does not hold.  The check must catch it. *)
    match Array.find_opt (function Readdir _ -> true | _ -> false) ops with
    | Some (Readdir d) -> Hashtbl.replace h.model.names d [ "planted" ]
    | _ -> ()
  end;
  let check = Check.create ~floor:p.floor in
  let clock = World.clock h.w in
  let n = Array.length ops in
  let names = Array.map op_name ops in
  let reads = { k_host = 0.0; k_sim = 0.0; k_n = 0 } in
  let writes = { k_host = 0.0; k_sim = 0.0; k_n = 0 } in
  let traced_ops = ref [] and n_traced = ref 0 in
  let counters0 = snapshot h in
  let gc0 = Gc.quick_stat () in
  let w = Window.start ~seconds ~floor:p.floor ~traced () in
  let i = ref 0 in
  while not (Window.over w) do
    let op = ops.(!i mod n) in
    let tr = Window.tracing w in
    let s0 = Clock.now clock in
    let t0 = now_ns () in
    let res = perform h.r op in
    let host_ns = elapsed_ns t0 in
    let sim_ns = Int64.to_float (Int64.sub (Clock.now clock) s0) in
    Window.note w ~traced:tr ~host_ns ~sim_ns;
    let kc = if is_read op then reads else writes in
    kc.k_host <- kc.k_host +. host_ns;
    kc.k_sim <- kc.k_sim +. sim_ns;
    kc.k_n <- kc.k_n + 1;
    if not (judge h.model op res) then
      Check.fail check (Printf.sprintf "%s: %s differs from the model" (op_name op) (errno_token res));
    Check.record check ~op:names.(!i mod n) (errno_token res);
    (match res with
     | Ok resp when tr && !n_traced < trace_cap ->
       traced_ops := (op, resp) :: !traced_ops;
       incr n_traced
     | _ -> ());
    World.tick h.w;
    incr i
  done;
  let window_s = elapsed_s w.Window.start in
  let counters1 = snapshot h in
  let e2e = finish_e2e w ~check ~setup_s:timings ~window_s ~gc0 in
  { e2e; host = h; ops; traced = List.rev !traced_ops; counters0; counters1; reads; writes }

(* {1 Per-layer probes (traced run)} *)

let probes (r : run) : layer_metric list * (string * float * float) list =
  let h = r.host in
  let attempted = max 1 r.e2e.attempted in
  let per_op name = float_of_int (delta r name) /. float_of_int attempted in
  (* The traced slices' requests and responses; a window too short to
     have a traced slice falls back to the head of the op stream. *)
  let traced =
    if r.traced <> [] then Array.of_list r.traced
    else
      Array.of_list
        (List.filter_map
           (fun op -> Result.to_option (Result.map (fun resp -> (op, resp)) (perform h.r op)))
           (Array.to_list (Array.sub r.ops 0 (min 512 (Array.length r.ops)))))
  in
  let nt = Array.length traced in
  (* The recorded request/response mix, as it travels. *)
  let token = String.make 32 'a' in
  let requests =
    Array.mapi
      (fun i (op, _) ->
        let req_id = if is_read op then "" else Printf.sprintf "bench-%d" i in
        Protocol.Op { token; req_id; op = to_protocol op })
      traced
  in
  let responses = Array.map snd traced in
  let enc_req = Array.map Protocol.encode_request requests in
  let enc_resp = Array.map Protocol.encode_response responses in
  let encode_ns =
    per_item ~min_s:0.2 ~per_pass:nt (fun () ->
        Array.iter (fun q -> ignore (Protocol.encode_request q)) requests;
        Array.iter (fun s -> ignore (Protocol.encode_response s)) responses)
  in
  let decode_ns =
    per_item ~min_s:0.2 ~per_pass:nt (fun () ->
        Array.iter (fun q -> ignore (Protocol.decode_request q)) enc_req;
        Array.iter (fun s -> ignore (Protocol.decode_response s)) enc_resp)
  in
  let bytes =
    Array.fold_left ( + ) 0 (Array.map String.length enc_req)
    + Array.fold_left ( + ) 0 (Array.map String.length enc_resp)
  in
  (* Direct sessions to every member, for the server read path and the
     router's own overhead. *)
  let net = World.net h.w in
  let cred = World.issue h.w "Bench" in
  let clients =
    List.map
      (fun name ->
        let s = World.server h.w name in
        (name, (s, ok_or_fail_msg "client" (Client.connect net ~addr:(Server.addr s) ~credentials:[ cred ]))))
      (World.members h.w)
  in
  let reads =
    Array.of_list
      (List.filter_map
         (fun (op, _) ->
           match op with
           | Put _ -> None
           | op ->
             let path = Protocol.operation_path (to_protocol op) in
             Option.map (fun node -> (node, op, path)) (Router.node_for h.r path))
         (Array.to_list traced))
  in
  let prepared =
    Array.map
      (fun (node, op, _) ->
        let s, c = List.assoc node clients in
        (s, Client.prepare c (to_protocol op)))
      reads
  in
  let server_ns =
    per_item ~min_s:0.2 ~per_pass:(Array.length prepared) (fun () ->
        Array.iter (fun (s, payload) -> ignore (Server.handle s payload)) prepared)
  in
  let gets = Array.of_list (List.filter_map (fun (node, op, path) ->
      match op with Get _ -> Some (node, path) | _ -> None) (Array.to_list reads)) in
  (* Router.get and a direct Client.get to the key's primary,
     interleaved key by key so drift cancels. *)
  let router_ns, client_ns =
    let via_router = ref 0.0 and direct = ref 0.0 and n = ref 0 in
    let t_end = Int64.add (now_ns ()) 400_000_000L in
    while !n = 0 || Int64.compare (now_ns ()) t_end < 0 do
      Array.iter
        (fun (node, path) ->
          let a, _ = time_ns (fun () -> Router.get h.r path) in
          let b, _ = time_ns (fun () -> Client.get (snd (List.assoc node clients)) path) in
          via_router := !via_router +. a;
          direct := !direct +. b;
          incr n)
        gets
    done;
    (!via_router /. float_of_int !n, !direct /. float_of_int !n)
  in
  let ring = Ring.create ~vnodes:64 (World.members h.w) in
  let keys = Array.map (fun (_, _, path) -> Replica.shard_key path) reads in
  let ring_ns =
    per_item ~min_s:0.1 ~per_pass:(Array.length keys) (fun () ->
        Array.iter (fun k -> ignore (Ring.lookup ring k)) keys)
  in
  let hit = delta r "cluster.route.cache.hit" and miss = delta r "cluster.route.cache.miss" in
  let lhit = delta r "chirp.lease.hit" and lmiss = delta r "chirp.lease.miss" in
  let mean kc f = if kc.k_n = 0 then 0.0 else f kc /. float_of_int kc.k_n in
  ( [
      ("protocol.encode_ns", encode_ns, "ns");
      ("protocol.decode_ns", decode_ns, "ns");
      ("protocol.bytes_per_op", float_of_int bytes /. float_of_int (max 1 nt), "bytes");
      ("server.read_ns_per_request", server_ns, "ns");
      ("client.lease_hit_ratio", ratio lhit (lhit + lmiss), "ratio");
      ("client.retries_per_op", per_op "chirp.retry", "count");
      ("net.messages_per_op", per_op "net.messages", "count");
      ("net.bytes_per_op", per_op "net.bytes", "bytes");
      ("ring.lookup_ns", ring_ns, "ns");
      ("router.route_cache_hit_ratio", ratio hit (hit + miss), "ratio");
      ("router.overhead_ns_per_op", router_ns -. client_ns, "ns");
    ],
    [
      ("chirp: read op (world_read)", mean r.reads (fun k -> k.k_host), mean r.reads (fun k -> k.k_sim));
      ("chirp: mutation op (world_read)", mean r.writes (fun k -> k.k_host),
       mean r.writes (fun k -> k.k_sim));
    ] )
