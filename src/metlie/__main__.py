from metlie.cli import main
raise SystemExit(main())
