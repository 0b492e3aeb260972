"""Private histogram estimation with client sampling, threshold secret
sharing, dummy-data noise, and an untrusted verifiable-OPRF randomness
server.

The package root exports nothing: import the module that holds a name, so
that a process loads only the modules it uses."""
