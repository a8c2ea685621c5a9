module Kernel = Idbox_kernel.Kernel
module Libc = Idbox_kernel.Libc
module Syscall = Idbox_kernel.Syscall
module Box = Idbox.Box
module Principal = Idbox_identity.Principal
module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno

let run_main kernel main =
  let pid = Kernel.spawn_main kernel ~uid:0 ~cwd:"/" ~main ~args:[ "t" ] () in
  Kernel.run kernel;
  Kernel.exit_code kernel pid

let check_raises_syscall_failed () =
  let k = Kernel.create () in
  let code =
    run_main k (fun _ ->
        match Libc.check "probe" (Libc.read_file "/nope") with
        | _ -> 1
        | exception Libc.Syscall_failed ("probe", Errno.ENOENT) -> 0
        | exception _ -> 2)
  in
  Alcotest.(check (option int)) "typed failure" (Some 0) code

let with_file_closes_on_both_paths () =
  let k = Kernel.create () in
  let code =
    run_main k (fun _ ->
        ignore (Libc.check "seed" (Libc.write_file "/tmp/f" ~contents:"abc"));
        (* Success path: fd is closed afterwards (the next open reuses
           the lowest number). *)
        let fd_in_use =
          Libc.check "with"
            (Libc.with_file "/tmp/f" (fun fd -> Ok fd))
        in
        let fd_next = Libc.check "open" (Libc.open_file "/tmp/f") in
        if fd_next <> fd_in_use then Libc.exit 1;
        ignore (Libc.close fd_next);
        (* Error path: the callback's error is preserved. *)
        (match Libc.with_file "/tmp/f" (fun _ -> Error Errno.EINVAL) with
         | Error Errno.EINVAL -> ()
         | Ok _ | Error _ -> Libc.exit 2);
        (* And the fd was still closed. *)
        let fd_again = Libc.check "open2" (Libc.open_file "/tmp/f") in
        if fd_again <> fd_in_use then Libc.exit 3;
        0)
  in
  Alcotest.(check (option int)) "with_file" (Some 0) code

(* Files around the 8 KiB block read_all uses internally: the bytes come
   back whole, for one [Read] per started block plus the empty one at
   end-of-file. *)
let read_all_chunks_across_blocks () =
  let module Metrics = Idbox_kernel.Metrics in
  List.iter
    (fun n ->
      let k = Kernel.create () in
      let data = String.init n (fun i -> Char.chr (33 + (i * 7 mod 90))) in
      let reads = ref 0 in
      let code =
        run_main k (fun _ ->
            ignore (Libc.check "seed" (Libc.write_file "/tmp/f" ~contents:data));
            let fd = Libc.check "open" (Libc.open_file "/tmp/f") in
            let r0 = Metrics.counter_value_of (Kernel.metrics k) "syscall.read" in
            let all = Libc.check "read_all" (Libc.read_all fd) in
            reads := Metrics.counter_value_of (Kernel.metrics k) "syscall.read" - r0;
            ignore (Libc.close fd);
            if String.equal all data then 0 else 1)
      in
      Alcotest.(check (option int)) (Printf.sprintf "%d B: bytes" n) (Some 0) code;
      Alcotest.(check int) (Printf.sprintf "%d B: reads" n) (((n + 8191) / 8192) + 1) !reads)
    [ 0; 1; 8191; 8192; 8193; 16_383; 16_384; 16_385; 20_000 ]

let compute_us_rounds () =
  let k = Kernel.create () in
  let t0 = Kernel.now k in
  ignore (run_main k (fun _ -> Libc.compute_us 2.5; 0));
  Alcotest.(check bool) "2.5us charged" true
    (Int64.compare (Int64.sub (Kernel.now k) t0) 2500L >= 0)

(* The exact PEEK/POKE vs channel boundary inside a box: a read of
   exactly the threshold takes the cheap path; one byte more crosses
   into the channel. *)
let small_io_threshold_boundary () =
  let k = Kernel.create () in
  let sup = match Kernel.add_user k "s" with Ok e -> e | Error m -> Alcotest.fail m in
  let box =
    match
      Box.create k ~supervisor_uid:sup.Idbox_kernel.Account.uid
        ~identity:(Principal.of_string "V") ~small_io_threshold:100 ()
    with
    | Ok b -> b
    | Error e -> Alcotest.fail (Errno.message e)
  in
  let home = Box.home box in
  let stats = Kernel.stats k in
  let pid =
    Box.spawn_main box
      ~main:(fun _ ->
        ignore (Libc.check "seed" (Libc.write_file (home ^ "/f") ~contents:(String.make 200 'x')));
        let fd = Libc.check "open" (Libc.open_file (home ^ "/f")) in
        (* Exactly at threshold: no channel bytes. *)
        ignore (Libc.check "r100" (Libc.pread fd ~off:0 ~len:100));
        0)
      ~args:[ "a" ]
  in
  Kernel.run k;
  ignore pid;
  (* The 200-byte seed write crossed the channel; the 100-byte read did
     not add to it. *)
  let after_first = stats.Kernel.channel_bytes in
  let pid2 =
    Box.spawn_main box
      ~main:(fun _ ->
        let fd = Libc.check "open" (Libc.open_file (home ^ "/f")) in
        ignore (Libc.check "r101" (Libc.pread fd ~off:0 ~len:101));
        0)
      ~args:[ "b" ]
  in
  Kernel.run k;
  ignore pid2;
  Alcotest.(check int) "one byte over crosses the channel" (after_first + 101)
    stats.Kernel.channel_bytes

let pp_smoke () =
  (* The pretty-printers never raise and say something useful. *)
  let show pp v = Format.asprintf "%a" pp v in
  Alcotest.(check string) "request" "open"
    (show Syscall.pp_request
       (Syscall.Open { path = "/x"; flags = Fs.rdonly; mode = 0 }));
  Alcotest.(check string) "value data" "<5 bytes>"
    (show Syscall.pp_value (Syscall.Data "12345"));
  Alcotest.(check string) "fd pair" "(rd 3, wr 4)"
    (show Syscall.pp_value (Syscall.Fd_pair { rd = 3; wr = 4 }));
  Alcotest.(check string) "result err" "EACCES"
    (show Syscall.pp_result (Error Errno.EACCES))

let suite =
  [
    Alcotest.test_case "Syscall_failed carries context" `Quick check_raises_syscall_failed;
    Alcotest.test_case "with_file closes" `Quick with_file_closes_on_both_paths;
    Alcotest.test_case "read_all chunks" `Quick read_all_chunks_across_blocks;
    Alcotest.test_case "compute_us" `Quick compute_us_rounds;
    Alcotest.test_case "small-io threshold boundary" `Quick small_io_threshold_boundary;
    Alcotest.test_case "pretty printers" `Quick pp_smoke;
  ]
