"""Tests for the container runtime: lifecycle, images, bridges, compose."""

import pytest

from repro.containers import (
    Container,
    ContainerState,
    Image,
    Orchestrator,
    Process,
    ServiceSpec,
)
from repro.containers.container import ContainerError
from repro.containers.image import Registry
from repro.sim import CsmaLan, Simulator
from repro.sim.node import Node


class EchoProcess(Process):
    """Test process: listens on a UDP port and echoes datagrams back."""

    name = "echo"

    def __init__(self, port=7):
        super().__init__()
        self.port = port
        self.echoed = 0

    def on_start(self):
        sock = self.node.udp.bind(self.port)
        sock.on_receive = self._echo

    def _echo(self, sock, payload, length, src, sport):
        self.echoed += 1
        sock.send_to(src, sport, payload)


@pytest.fixture()
def env():
    sim = Simulator()
    lan = CsmaLan(sim)
    return sim, lan, Orchestrator(sim, lan)


class TestImage:
    def test_reference(self):
        assert Image("ddoshield/dev", "1.0").reference == "ddoshield/dev:1.0"

    def test_with_entrypoint_is_derivation(self):
        base = Image("base")
        derived = base.with_entrypoint(lambda c: EchoProcess())
        assert base.entrypoints == ()
        assert len(derived.entrypoints) == 1

    def test_registry_push_pull(self):
        registry = Registry()
        image = Image("dev", "2.0")
        registry.push(image)
        assert registry.pull("dev:2.0") is image
        assert "dev:2.0" in registry

    def test_registry_default_tag(self):
        registry = Registry()
        image = Image("dev")
        registry.push(image)
        assert registry.pull("dev") is image
        assert "dev" in registry

    def test_registry_missing_image(self):
        with pytest.raises(KeyError):
            Registry().pull("ghost:latest")


class TestContainerLifecycle:
    def make(self, env, image=None):
        sim, lan, _ = env
        node = Node(sim, "n")
        from repro.sim.node import connect_to_lan

        connect_to_lan(node, lan.channel, lan.network, lan.macs.allocate())
        return Container("c1", image or Image("img"), sim, node)

    def test_initial_state_created(self, env):
        assert self.make(env).state is ContainerState.CREATED

    def test_start_runs_entrypoints(self, env):
        image = Image("img").with_entrypoint(lambda c: EchoProcess())
        container = self.make(env, image)
        container.start()
        assert container.state is ContainerState.RUNNING
        assert container.find_process("echo") is not None

    def test_double_start_rejected(self, env):
        container = self.make(env)
        container.start()
        with pytest.raises(ContainerError):
            container.start()

    def test_exec_requires_running(self, env):
        container = self.make(env)
        with pytest.raises(ContainerError):
            container.exec(EchoProcess())

    def test_stop_stops_processes(self, env):
        container = self.make(env)
        container.start()
        process = container.exec(EchoProcess())
        container.stop()
        assert not process.running
        assert container.state is ContainerState.STOPPED

    def test_stop_requires_running(self, env):
        with pytest.raises(ContainerError):
            self.make(env).stop()

    def test_uptime_tracks_virtual_time(self, env):
        sim, _, _ = env
        container = self.make(env)
        container.start()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert container.uptime == pytest.approx(5.0)
        container.stop()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert container.uptime == pytest.approx(5.0)

    def test_find_process_missing_returns_none(self, env):
        container = self.make(env)
        container.start()
        assert container.find_process("nope") is None


class TestOrchestrator:
    def test_up_starts_replicas(self, env):
        sim, lan, orch = env
        image = Image("dev").with_entrypoint(lambda c: EchoProcess())
        orch.add_service(ServiceSpec("dev", image, replicas=3))
        containers = orch.up()
        assert len(containers) == 3
        assert sorted(c.name for c in containers) == ["dev-0", "dev-1", "dev-2"]
        assert all(c.state is ContainerState.RUNNING for c in containers)

    def test_single_replica_keeps_bare_name(self, env):
        _, _, orch = env
        orch.add_service(ServiceSpec("tserver", Image("tserver")))
        assert orch.up()[0].name == "tserver"

    def test_containers_communicate_over_lan(self, env):
        sim, lan, orch = env
        echo_image = Image("echo").with_entrypoint(lambda c: EchoProcess(port=7))
        server = orch.run("server", echo_image)
        client = orch.run("client", Image("client"))
        replies = []
        sock = client.node.udp.bind(0)
        sock.on_receive = lambda s, p, n, src, sp: replies.append(p)
        sock.send_to(server.node.address, 7, b"ping")
        sim.run(until=1.0)
        assert replies == [b"ping"]

    def test_duplicate_name_rejected(self, env):
        _, _, orch = env
        orch.run("x", Image("img"))
        with pytest.raises(ValueError):
            orch.run("x", Image("img"))

    def test_remove_detaches_from_lan(self, env):
        sim, lan, orch = env
        echo_image = Image("echo").with_entrypoint(lambda c: EchoProcess(port=7))
        server = orch.run("server", echo_image)
        client = orch.run("client", Image("client"))
        server_addr = server.node.address
        orch.remove("server")
        replies = []
        sock = client.node.udp.bind(0)
        sock.on_receive = lambda *a: replies.append(1)
        sock.send_to(server_addr, 7, b"ping")
        sim.run(until=1.0)
        assert replies == []
        assert "server" not in orch.containers

    def test_ps_lists_states(self, env):
        _, _, orch = env
        orch.run("a", Image("img"))
        orch.stop("a")
        assert orch.ps() == [("a", "img:latest", "stopped")]

    def test_down_removes_all(self, env):
        _, _, orch = env
        orch.run("a", Image("img"))
        orch.run("b", Image("img"))
        orch.down()
        assert orch.ps() == []

    def test_get_missing_raises(self, env):
        _, _, orch = env
        with pytest.raises(KeyError):
            orch.get("ghost")
