module Network = Idbox_net.Network
module Clock = Idbox_kernel.Clock
module Trace = Idbox_kernel.Trace
module Client = Idbox_chirp.Client
module Protocol = Idbox_chirp.Protocol
module Wire = Idbox_chirp.Wire
module Errno = Idbox_vfs.Errno
module Path = Idbox_vfs.Path
module Breaker = Idbox_net.Breaker

(* One hedged leg in flight.  [fl_counted] guards the in-flight gauge:
   a leg is decremented exactly once, whether it is observed winning,
   losing, or straggling in long after the read returned — a late
   reply must never double-decrement.  [fl_fed] likewise guards the
   node's circuit breaker: a leg feeds it exactly one verdict, however
   many times the flight is polled. *)
type flight = {
  fl_tok : Network.token;
  fl_node : string;
  mutable fl_counted : bool;
  mutable fl_fed : bool;
}

type t = {
  rt_net : Network.t;
  rt_src : string;
  rt_policy : Client.retry_policy;
  rt_creds : Idbox_auth.Credential.t list;
  rt_membership : Membership.t;
  rt_replicas : int;
  rt_vnodes : int;
  rt_hedge_ns : int64 option;  (* None: serial failover reads *)
  rt_trace : Trace.ring option;
  rt_conns : (string, Client.t) Hashtbl.t;  (* keyed by node name *)
  mutable rt_ring : Ring.t;
  mutable rt_view : (string * string) list;
  mutable rt_principal : string;
  mutable rt_prefixes : string list;  (* shard keys touched, for rebalance *)
  mutable rt_routes : int;
  mutable rt_failovers : int;
  (* Hedged-read accounting.  The gauge is a plain field, not a
     Metrics counter: counters saturate and cannot decrement. *)
  mutable rt_inflight : int;
  mutable rt_outstanding : flight list;  (* abandoned losers, un-reaped *)
  (* Route cache: shard key -> owner list, valid for one membership
     epoch.  Only the consistent-hash computation is cached — per-route
     metrics and trace spans still fire on every call, so transcripts
     are byte-identical with the cache on. *)
  rt_route_cache : (string, string list) Hashtbl.t;
  mutable rt_route_epoch : int;
  (* Per-node circuit breakers (transport faults only) and shed marks
     (a node recently answering EAGAIN): both steer hedges and sweeps
     away from known-bad or overloaded replicas. *)
  rt_breakers : (string, Breaker.t) Hashtbl.t;
  rt_shed_until : (string, int64) Hashtbl.t;
  rt_hint_recent : (string, int64) Hashtbl.t;  (* key -> suppress until *)
}

let principal t = t.rt_principal
let nodes t = Ring.nodes t.rt_ring
let routes t = t.rt_routes
let failovers t = t.rt_failovers
let inflight t = t.rt_inflight

let metric t name = Network.count t.rt_net name

let settle t fl =
  if not fl.fl_counted then begin
    fl.fl_counted <- true;
    t.rt_inflight <- t.rt_inflight - 1
  end

let span t ~syscall ~verdict =
  match t.rt_trace with
  | None -> ()
  | Some ring ->
    Trace.span ring ~time:(Clock.now (Network.clock t.rt_net)) ~pid:0
      ~identity:t.rt_principal ~syscall ~verdict ~cost_ns:0L

(* Transport-level failures that justify trying another replica — the
   same set the Chirp client treats as retryable, minus EAGAIN (a live
   server shedding load is an answer, not an absence). *)
let transient = function
  | Errno.ETIMEDOUT | Errno.ECONNRESET | Errno.ECONNREFUSED
  | Errno.EHOSTUNREACH -> true
  | _ -> false

let breaker_for t name =
  match Hashtbl.find_opt t.rt_breakers name with
  | Some b -> b
  | None ->
    let b =
      Breaker.create ~threshold:3 ~reset_ns:500_000_000L
        ~prefix:"cluster.breaker"
        ~on_transition:(fun subject state ->
          span t ~syscall:"cluster.breaker"
            ~verdict:(subject ^ ":" ^ Breaker.state_name state))
        ~clock:(Network.clock t.rt_net) ~metrics:(Network.metrics t.rt_net)
        name
    in
    Hashtbl.replace t.rt_breakers name b;
    b

(* A node that answered EAGAIN is alive but shedding: remember it for a
   quarter timeout so hedges stop piling extra load onto it (the server
   sheds hedged work first by never receiving it). *)
let note_shed t name =
  metric t "cluster.shed.observed";
  Hashtbl.replace t.rt_shed_until name
    (Int64.add
       (Clock.now (Network.clock t.rt_net))
       (Int64.div t.rt_policy.Client.timeout_ns 4L))

let shedding t name =
  match Hashtbl.find_opt t.rt_shed_until name with
  | Some until ->
    Int64.compare (Clock.now (Network.clock t.rt_net)) until < 0
  | None -> false

(* One breaker verdict per hedge leg ([fl_fed]): a transport fault
   feeds [failure]; any in-band reply — even an error verdict — proves
   liveness and feeds [success], with EAGAIN additionally marking the
   node as shedding. *)
let feed t fl r =
  if not fl.fl_fed then begin
    fl.fl_fed <- true;
    let br = breaker_for t fl.fl_node in
    match r with
    | Ok text ->
      Breaker.success br;
      (match Client.interpret text with
       | Error Errno.EAGAIN -> note_shed t fl.fl_node
       | _ -> ())
    | Error e ->
      if transient e then Breaker.failure ~errno:e br
      else Breaker.success br
  end

(* Observe abandoned hedge legs that have since completed: their reply
   is discarded — it already lost the race, so it must not surface as
   a fresh result — and the in-flight gauge comes down exactly once
   ([fl_counted]).  Runs at the head of every read and on demand. *)
let reap t =
  t.rt_outstanding <-
    List.filter
      (fun fl ->
        match Network.poll fl.fl_tok with
        | None -> true
        | Some r ->
          feed t fl r;
          metric t "cluster.hedge.late";
          settle t fl;
          false)
      t.rt_outstanding

let note_prefix t key =
  if not (List.mem key t.rt_prefixes) then
    t.rt_prefixes <- List.sort String.compare (key :: t.rt_prefixes)

let node_for t path =
  Ring.lookup t.rt_ring (Replica.shard_key path)

(* An authenticated session with one shard, opened on demand and
   cached.  The identity invariant is enforced here: a shard that
   negotiates a different principal for our credentials is refused —
   and the whole call fails, rather than quietly running one user's
   operation under another's name. *)
let conn_for t name =
  match Hashtbl.find_opt t.rt_conns name with
  | Some c -> Ok c
  | None ->
    (match List.assoc_opt name t.rt_view with
     | None -> Error (`Down Errno.EHOSTUNREACH)
     | Some addr ->
       (match
          Client.connect ~src:t.rt_src ~policy:t.rt_policy t.rt_net ~addr
            ~credentials:t.rt_creds
        with
        | Error _ -> Error (`Down Errno.EHOSTUNREACH)
        | Ok c ->
          if String.equal (Client.principal c) t.rt_principal then begin
            Hashtbl.replace t.rt_conns name c;
            Ok c
          end
          else begin
            metric t "cluster.identity.mismatch";
            span t ~syscall:"cluster.identity"
              ~verdict:(name ^ ":" ^ Client.principal c);
            Error `Mismatch
          end))

let flush_route_cache t =
  if Hashtbl.length t.rt_route_cache > 0 then begin
    metric t "cluster.route.cache.flush";
    Hashtbl.reset t.rt_route_cache
  end;
  t.rt_route_epoch <- Membership.generation t.rt_membership

let sync t =
  match Membership.refresh t.rt_membership with
  | Error _ -> ()  (* unreachable catalog is not evidence servers died *)
  | Ok false -> ()
  | Ok true ->
    let new_view = Membership.view t.rt_membership in
    let after =
      Ring.create ~vnodes:t.rt_vnodes (List.map fst new_view)
    in
    metric t "cluster.rebalance";
    let migrations =
      Replica.rebalance t.rt_net ~src:t.rt_src ~before:t.rt_ring ~after
        ~old_view:t.rt_view ~new_view ~replicas:t.rt_replicas
        ~prefixes:t.rt_prefixes ()
    in
    span t ~syscall:"cluster.rebalance"
      ~verdict:(Printf.sprintf "members=%d migrations=%d"
                  (List.length new_view) migrations);
    (* Sessions to departed nodes die with the view; a re-admitted node
       gets a fresh authentication (and a fresh identity check), a
       fresh breaker, and no lingering shed mark. *)
    Hashtbl.iter
      (fun name _ ->
        if not (List.mem_assoc name new_view) then begin
          Hashtbl.remove t.rt_conns name;
          Hashtbl.remove t.rt_breakers name;
          Hashtbl.remove t.rt_shed_until name
        end)
      (Hashtbl.copy t.rt_conns);
    t.rt_ring <- after;
    t.rt_view <- new_view;
    flush_route_cache t

let route t key =
  t.rt_routes <- t.rt_routes + 1;
  metric t "cluster.route";
  note_prefix t key;
  if Membership.generation t.rt_membership <> t.rt_route_epoch then
    flush_route_cache t;
  let owners =
    match Hashtbl.find_opt t.rt_route_cache key with
    | Some owners ->
      metric t "cluster.route.cache.hit";
      owners
    | None ->
      metric t "cluster.route.cache.miss";
      let owners = Ring.successors t.rt_ring key t.rt_replicas in
      Hashtbl.replace t.rt_route_cache key owners;
      owners
  in
  (match owners with
   | primary :: _ ->
     metric t ("cluster.route." ^ primary);
     span t ~syscall:"cluster.route" ~verdict:(key ^ "->" ^ primary)
   | [] -> ());
  owners

(* A concurrently hedged read: the prepared request goes to the
   primary at once; a timer [hedge_ns] ahead launches the identical
   read on the next replica if the primary has not answered.  First
   success wins.  The loser's exchange is abandoned, not cancelled —
   its reply, whenever it arrives, is discarded by {!reap}
   ([cluster.hedge.late]) and decrements the in-flight gauge exactly
   once.  Only idempotent operations reach here (prepared requests
   carry no request ID), so the duplicated execution is harmless.

   [`Win] carries the winning leg and its response; [`Give e] hands
   the errno to the caller ([ESTALE] falls back to the serial path,
   whose {!Client.call} re-authenticates). *)
let hedged t ~hedge_ns ~primary ~next ~op =
  match Hashtbl.find_opt t.rt_conns primary with
  | None -> `Unhedged  (* no live session: the serial path negotiates *)
  | Some _ when Breaker.state (breaker_for t primary) <> Breaker.Closed ->
    (* A tripped primary is the serial sweep's business — it knows how
       to skip, probe, and fail over; racing a hedge adds nothing. *)
    `Unhedged
  | Some cp ->
    reap t;
    let launch node c =
      t.rt_inflight <- t.rt_inflight + 1;
      {
        fl_tok =
          Network.submit t.rt_net ~src:t.rt_src
            ~timeout_ns:t.rt_policy.Client.timeout_ns ~addr:(Client.addr c)
            (Client.prepare c op);
        fl_node = node;
        fl_counted = false;
        fl_fed = false;
      }
    in
    (* The loser is still in flight when the winner returns: remember
       it so a later [reap] discards its reply and balances the
       gauge. *)
    let abandon fl =
      match Network.poll fl.fl_tok with
      | None -> t.rt_outstanding <- fl :: t.rt_outstanding
      | Some r ->
        feed t fl r;
        metric t "cluster.hedge.late";
        settle t fl
    in
    let pf = launch primary cp in
    let sf = ref None in
    let try_hedge () =
      if !sf = None then
        match Hashtbl.find_opt t.rt_conns next with
        | None -> ()
        | Some _
          when shedding t next
               || Breaker.state (breaker_for t next) <> Breaker.Closed ->
          (* Hedged work is shed first: never launch the extra leg at a
             node that is shedding or breaker-tripped. *)
          metric t "cluster.hedge.skip"
        | Some cs ->
          metric t "cluster.hedge.launched";
          sf := Some (launch next cs)
    in
    Network.at t.rt_net
      (Int64.add (Clock.now (Network.clock t.rt_net)) hedge_ns)
      (fun () -> if Network.poll pf.fl_tok = None then try_hedge ());
    let outcome fl =
      match Network.poll fl.fl_tok with
      | None -> None
      | Some r ->
        feed t fl r;
        (match r with
         | Ok text -> Some (Client.interpret text)
         | Error e -> Some (Error e))
    in
    let rec drive () =
      match outcome pf with
      | Some (Ok resp) ->
        settle t pf;
        (match !sf with Some fl -> abandon fl | None -> ());
        `Win (`Primary, resp)
      | Some (Error pe) when transient pe ->
        settle t pf;
        (* The primary is out: ride the hedge leg if one is flying,
           launch the failover leg if not. *)
        try_hedge ();
        (match !sf with
         | None -> `Give pe
         | Some fl ->
           (match outcome fl with
            | Some (Ok resp) ->
              settle t fl;
              `Win (`Secondary, resp)
            | Some (Error se) ->
              settle t fl;
              `Give se
            | None ->
              if Network.step t.rt_net then drive ()
              else begin
                settle t fl;
                `Give pe
              end))
      | Some (Error pe) ->
        (* An application verdict (or a stale session): final here —
           abandon any hedge leg rather than shop for another answer. *)
        settle t pf;
        (match !sf with Some fl -> abandon fl | None -> ());
        `Give pe
      | None ->
        (match !sf with
         | Some fl when not fl.fl_counted ->
           (match outcome fl with
            | Some (Ok resp) ->
              settle t fl;
              abandon pf;
              `Win (`Secondary, resp)
            | Some (Error _) ->
              (* The hedge lost its own race; keep riding the primary. *)
              settle t fl;
              if Network.step t.rt_net then drive ()
              else begin
                settle t pf;
                `Give Errno.ETIMEDOUT
              end
            | None ->
              if Network.step t.rt_net then drive ()
              else begin
                settle t pf;
                settle t fl;
                `Give Errno.ETIMEDOUT
              end)
         | _ ->
           if Network.step t.rt_net then drive ()
           else begin
             settle t pf;
             `Give Errno.ETIMEDOUT
           end)
    in
    drive ()

(* Read repair, hedged-read flavour: a later replica answered after an
   earlier owner failed, so some copy of this key is unreachable or
   behind.  Nudge the key's primary with an untrusted hint — it
   schedules a digest check the primary performs itself, so a wrong
   guess costs one comparison.  The sender is bounded and deduped: on a
   flapping WAN link *every* failed-over read would otherwise emit a
   hint for the same few keys, growing the replica's pending set and
   burning round trips on redundant nudges.  One hint per key per
   timeout window, at most [hint_cap] distinct keys in flight; the
   overflow is counted and dropped — the cadence sweep covers every
   key regardless. *)
let hint_cap = 16

let read_repair_hint t key =
  let now = Clock.now (Network.clock t.rt_net) in
  Hashtbl.iter
    (fun k until -> if Int64.compare now until >= 0 then Hashtbl.remove t.rt_hint_recent k)
    (Hashtbl.copy t.rt_hint_recent);
  if Hashtbl.mem t.rt_hint_recent key
     || Hashtbl.length t.rt_hint_recent >= hint_cap then
    metric t "cluster.repair.hint_dropped"
  else
    match Ring.lookup t.rt_ring key with
    | None -> ()
    | Some primary ->
      (match List.assoc_opt primary t.rt_view with
       | None -> ()
       | Some addr ->
         Hashtbl.replace t.rt_hint_recent key
           (Int64.add now (Int64.mul 2L t.rt_policy.Client.timeout_ns));
         metric t "cluster.read_repair.hint";
         span t ~syscall:"cluster.read_repair" ~verdict:key;
         ignore
           (Network.call t.rt_net ~src:t.rt_src
              ~addr:(Replica.repl_addr addr)
              (Wire.encode [ "hint"; key ])))

(* A read sweeps the replica set: primary first, hedged failover to the
   next replica on a transport fault.  An application verdict (EACCES,
   ENOENT...) from a live replica is final — replicas run the same ACL
   checks, so shopping for a different answer is both useless and
   wrong. *)
let read_on t path ?hedge f =
  let attempt () =
    let tried = ref false in
    let rec go last = function
      | [] ->
        (match last with
         | Some e -> Error e
         | None -> Error Errno.EHOSTUNREACH)
      | name :: rest ->
        let failover e =
          if rest = [] then Error e
          else begin
            t.rt_failovers <- t.rt_failovers + 1;
            metric t "cluster.failover";
            span t ~syscall:"cluster.failover"
              ~verdict:(name ^ ":" ^ Errno.to_string e);
            go (Some e) rest
          end
        in
        let br = breaker_for t name in
        if not (Breaker.allow br) then begin
          (* Short-circuit: skip the known-bad replica without spending
             a timeout on it, surfacing why it was abandoned. *)
          metric t "cluster.breaker.skip";
          failover (Breaker.last_errno br)
        end
        else
          (match conn_for t name with
           | Error `Mismatch -> Error Errno.EPERM
           | Error (`Down e) ->
             Breaker.failure ~errno:e br;
             failover e
           | Ok c ->
             tried := true;
             (match f c with
              | Error Errno.EAGAIN as r ->
                (* Shedding is an answer, not an absence. *)
                Breaker.success br;
                note_shed t name;
                r
              | Error e when transient e ->
                Breaker.failure ~errno:e br;
                failover e
              | r ->
                Breaker.success br;
                r))
    in
    (* If every owner was short-circuited by an open breaker, force one
       request at the primary anyway: breakers must never be able to
       brick a key, only to reorder who pays the timeouts. *)
    let forced owners r =
      match (r, owners) with
      | Error e, primary :: _ when transient e && not !tried ->
        metric t "cluster.breaker.forced";
        let br = breaker_for t primary in
        (match conn_for t primary with
         | Error `Mismatch -> Error Errno.EPERM
         | Error (`Down e2) ->
           Breaker.failure ~errno:e2 br;
           Error e2
         | Ok c ->
           (match f c with
            | Error e2 when transient e2 ->
              Breaker.failure ~errno:e2 br;
              Error e2
            | r2 ->
              Breaker.success br;
              r2))
      | _ -> r
    in
    let owners = route t (Replica.shard_key path) in
    (* Hedging is opt-in ([hedge_ns] at connect) and applies to reads
       that supplied their raw operation; anything it cannot settle —
       no session yet, a stale token needing re-authentication — falls
       back to the serial sweep below. *)
    let hedged_r =
      match (t.rt_hedge_ns, hedge, owners) with
      | Some hedge_ns, Some (op, of_resp), primary :: next :: _ ->
        (match hedged t ~hedge_ns ~primary ~next ~op with
         | `Unhedged -> None
         | `Win (`Primary, resp) -> Some (of_resp resp)
         | `Win (`Secondary, resp) ->
           t.rt_failovers <- t.rt_failovers + 1;
           metric t "cluster.failover";
           span t ~syscall:"cluster.failover" ~verdict:(primary ^ ":hedged");
           Some (of_resp resp)
         | `Give Errno.ESTALE -> None  (* the serial path re-authenticates *)
         | `Give e -> Some (Error e))
      | _ -> None
    in
    match hedged_r with
    | Some r -> r
    | None -> forced owners (go None owners)
  in
  let failovers_before = t.rt_failovers in
  let r =
    match attempt () with
    | Error e when transient e ->
      (* Every replica out of reach: the membership may have moved under
         us.  Re-read the catalog, rebalance, try the new ring once. *)
      metric t "cluster.route.retry";
      sync t;
      attempt ()
    | r -> r
  in
  (match r with
   | Ok _ when t.rt_failovers > failovers_before ->
     read_repair_hint t (Replica.shard_key path)
   | _ -> ());
  r

(* A write goes through the primary alone; the primary's server-side
   hook fans it out to the other owners (Replica.forward). *)
let write_on t path f =
  let attempt () =
    match route t (Replica.shard_key path) with
    | [] -> Error Errno.EHOSTUNREACH
    | primary :: _ ->
      (* Writes never skip the primary — there is no other correct
         destination — but they still feed its breaker, so the read
         side learns from write-path faults too. *)
      let br = breaker_for t primary in
      (match conn_for t primary with
       | Error `Mismatch -> Error Errno.EPERM
       | Error (`Down e) ->
         Breaker.failure ~errno:e br;
         Error e
       | Ok c ->
         (match f c with
          | Error Errno.EAGAIN as r ->
            Breaker.success br;
            note_shed t primary;
            r
          | Error e when transient e ->
            Breaker.failure ~errno:e br;
            Error e
          | r ->
            Breaker.success br;
            r))
  in
  match attempt () with
  | Error e when transient e ->
    metric t "cluster.route.retry";
    sync t;
    attempt ()
  | r -> r

let connect ?(src = "client") ?(policy = Client.default_policy) ?(replicas = 2)
    ?(vnodes = 64) ?hedge_ns ?trace net ~catalog ~credentials =
  let membership = Membership.create ~src net ~catalog in
  match Membership.refresh membership with
  | Error e -> Error ("cluster: catalog unreachable: " ^ e)
  | Ok _ ->
    let view = Membership.view membership in
    if view = [] then Error "cluster: no servers advertised"
    else begin
      let t =
        {
          rt_net = net;
          rt_src = src;
          rt_policy = policy;
          rt_creds = credentials;
          rt_membership = membership;
          rt_replicas = max 1 replicas;
          rt_vnodes = vnodes;
          rt_hedge_ns = hedge_ns;
          rt_trace = trace;
          rt_conns = Hashtbl.create 8;
          rt_ring = Ring.create ~vnodes (List.map fst view);
          rt_view = view;
          rt_principal = "";
          rt_prefixes = [];
          rt_routes = 0;
          rt_failovers = 0;
          rt_inflight = 0;
          rt_outstanding = [];
          rt_route_cache = Hashtbl.create 32;
          rt_route_epoch = Membership.generation membership;
          rt_breakers = Hashtbl.create 8;
          rt_shed_until = Hashtbl.create 8;
          rt_hint_recent = Hashtbl.create 8;
        }
      in
      (* Authenticate to every shard up front and require one
         principal everywhere: the paper's consistency-of-identity
         invariant, now a cluster admission check. *)
      let rec admit = function
        | [] -> Ok t
        | (name, addr) :: rest ->
          (match
             Client.connect ~src ~policy net ~addr ~credentials
           with
           | Error m -> Error (Printf.sprintf "cluster: shard %s: %s" name m)
           | Ok c ->
             if String.equal t.rt_principal "" then begin
               t.rt_principal <- Client.principal c;
               Hashtbl.replace t.rt_conns name c;
               admit rest
             end
             else if String.equal (Client.principal c) t.rt_principal then begin
               Hashtbl.replace t.rt_conns name c;
               admit rest
             end
             else begin
               metric t "cluster.identity.mismatch";
               Error
                 (Printf.sprintf
                    "cluster: identity differs across shards: %s negotiated \
                     %S, others %S — refusing to proceed"
                    name (Client.principal c) t.rt_principal)
             end)
      in
      admit view
    end

(* {1 The routed client API} *)

let mkdir t path = write_on t path (fun c -> Client.mkdir c path)
let rmdir t path = write_on t path (fun c -> Client.rmdir c path)
let unlink t path = write_on t path (fun c -> Client.unlink c path)
let put t ~path ~data = write_on t path (fun c -> Client.put c ~path ~data)

let of_data = function
  | Protocol.R_data d -> Ok d
  | _ -> Error Errno.EINVAL

let of_stat = function
  | Protocol.R_stat st -> Ok st
  | _ -> Error Errno.EINVAL

let of_names = function
  | Protocol.R_names names -> Ok names
  | _ -> Error Errno.EINVAL

let of_str = function
  | Protocol.R_str s -> Ok s
  | _ -> Error Errno.EINVAL

let get t path =
  read_on t path
    ~hedge:(Protocol.Get path, of_data)
    (fun c -> Client.get c path)

let stat t path =
  read_on t path
    ~hedge:(Protocol.Stat path, of_stat)
    (fun c -> Client.stat c path)

let readdir t path =
  read_on t path
    ~hedge:(Protocol.Readdir path, of_names)
    (fun c -> Client.readdir c path)

let getacl t path =
  read_on t path
    ~hedge:(Protocol.Getacl path, of_str)
    (fun c -> Client.getacl c path)

let setacl t ~path ~entry =
  write_on t path (fun c -> Client.setacl c ~path ~entry)

let rename t ~src ~dst =
  if String.equal (Replica.shard_key src) (Replica.shard_key dst) then
    write_on t src (fun c -> Client.rename c ~src ~dst)
  else begin
    (* Shards are disjoint namespaces on (generally) different servers:
       a cross-shard rename is a cross-device rename. *)
    metric t "cluster.exdev";
    Error Errno.EXDEV
  end

let exec t ?cwd ~path ~args () =
  let cwd = match cwd with Some c -> c | None -> Path.dirname path in
  let cwd_key = Replica.shard_key cwd in
  if
    String.equal cwd_key (Replica.shard_key path)
    || String.equal cwd_key "/"  (* the root exists on every shard *)
  then write_on t path (fun c -> Client.exec c ~cwd ~path ~args ())
  else begin
    metric t "cluster.exdev";
    Error Errno.EXDEV
  end

(* Delegated exec rides the write path like [exec]: the chain travels
   inside the operation, the primary validates it, and the server-side
   mutation hook forwards the whole delegated op to the other owners —
   each replica revalidates the chain against its own revocation view,
   so a replica that already heard a [Revoke] refuses the replay. *)
let exec_delegated t ~chain ?cwd ~path ~args () =
  let cwd = match cwd with Some c -> c | None -> Path.dirname path in
  let cwd_key = Replica.shard_key cwd in
  if
    String.equal cwd_key (Replica.shard_key path)
    || String.equal cwd_key "/"
  then begin
    metric t "cluster.delegated_exec";
    write_on t path (fun c ->
        Client.exec_delegated c ~chain ~cwd ~path ~args ())
  end
  else begin
    metric t "cluster.exdev";
    Error Errno.EXDEV
  end

(* Revocation is root-key state, like the export root's ACL: the write
   goes to the root primary and the server-side hook fans it to every
   member.  Partitioned members catch up by epoch gossip. *)
let revoke t who = write_on t "/" (fun c -> Client.revoke c who)

let delegation_epoch t who =
  read_on t "/" (fun c -> Client.delegation_epoch c who)

let checksum t path =
  read_on t path
    ~hedge:(Protocol.Checksum path, of_str)
    (fun c -> Client.checksum c path)

let whoami t =
  read_on t "/" ~hedge:(Protocol.Whoami, of_str) (fun c -> Client.whoami c)
